// Package fixture is the source ratchet's test module. It aliases
// impl.Widget, so Widget's methods are API.
package fixture

import "fixture/impl"

type Widget = impl.Widget

var Total = impl.Count(nil) + impl.Min(nil) + int(impl.Code(nil))
