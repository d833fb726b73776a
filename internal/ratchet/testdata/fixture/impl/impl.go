// Package impl plants what the source ratchet must report and pass.
package impl

import "errors"

type Widget struct{ n int }
type gadget struct{ n int }
type named struct{}
type codeError int
type wrapError struct{ error }

type sizer interface {
	Size() int // called through the interface by Count
	Reset()    // never called through the interface
}

func (w *Widget) Spin()    { w.n++ }                 // live: the root package aliases Widget
func (g *gadget) tune()    { g.n++ }                 // dead method
func unusedHelper() int    { return unusedHelper() } // dead function
func (named) Name() string { return "named" }        // live: satisfies Count's assertion
func (named) Size() int    { return 1 }              // live: satisfies sizer
func (named) Reset()       {}                        // live: satisfies sizer

func (codeError) Error() string   { return "code" }  // live: satisfies error
func (w wrapError) Unwrap() error { return w.error } // live: errors.As calls it

func Count(m map[string]int) (n int) {
	if _, ok := any(named{}).(interface{ Name() string }); ok {
		n++
	}
	var s sizer = named{}
	n += s.Size()
	for range m { // not listed
		n++
	}
	return n
}

func Min(m map[string]int) (best int) {
	for _, v := range m { // listed
		best = min(best, v)
	}
	return best
}

func Code(err error) (c codeError) {
	errors.As(wrapError{err}, &c)
	return c
}
