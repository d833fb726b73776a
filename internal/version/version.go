// Package version carries the haccrg binary's build stamp. The
// variables are plain strings so release builds can set them through
// the linker:
//
//	go build -ldflags "-X haccrg/internal/version.Version=v1.2.3 \
//	                   -X haccrg/internal/version.Commit=$(git rev-parse --short HEAD)"
//
// Unstamped builds report "dev".
package version

import (
	"fmt"
	"runtime"
)

// Version is the semantic release tag, stamped via ldflags ("dev" for
// local builds).
var Version = "dev"

// Commit is the VCS revision the binary was built from (empty for
// local builds).
var Commit = ""

// String renders the one-line version banner the CLI prints for
// -version: program name, version, optional commit, and the Go
// toolchain, e.g. "haccrg v1.2.3 (abc1234) go1.24.0 linux/amd64".
func String() string {
	s := "haccrg " + Version
	if Commit != "" {
		s += " (" + Commit + ")"
	}
	return fmt.Sprintf("%s %s %s/%s", s, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}
