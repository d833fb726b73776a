package journal

import (
	"fmt"
	"io"
	"strings"
)

// Timeline renders a journal's kernel-start, kernel-end, barrier and
// race records as text, one line per record: the cycle, the record
// type and the kernel, and for a race, marked "!!", the race itself.
// It is what `haccrg -trace` prints. A damaged journal renders its
// intact prefix; only an unreadable header is an error.
func Timeline(src io.Reader) (string, error) {
	r, err := NewReader(src)
	if err != nil {
		return "", err
	}
	var (
		sb     strings.Builder
		dc     recordDecoder
		kernel string
	)
	for {
		payload, err := r.Next()
		if err != nil {
			return sb.String(), nil
		}
		rec, err := dc.decode(payload)
		if err != nil {
			return sb.String(), nil
		}
		marker, race := "  ", ""
		switch rec.Type {
		case RecKernelStart:
			kernel = rec.Kernel
		case RecKernelEnd, RecBarrier:
		case RecRace:
			marker, race = "!!", "  "+rec.Race
		default:
			continue
		}
		fmt.Fprintf(&sb, "%s %6d %-13s %s%s\n", marker, rec.Cycle, rec.Type, kernel, race)
	}
}
