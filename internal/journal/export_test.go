package journal

import (
	"io"

	"haccrg/internal/gpu"
)

// ReplayReference exposes the materializing reference replay to the
// external tests.
var ReplayReference = replayReference

// ReplayHeld replays like Replay and also reports the capacity its
// read-ahead grew to: the most raw payload bytes it held at once,
// rounded up by append's growth, and 0 when it held none.
func ReplayHeld(src io.Reader, det gpu.Detector) (*ReplayResult, int, error) {
	s, err := newStream(src)
	if err != nil {
		return nil, 0, err
	}
	res, err := s.replay(det)
	return res, cap(s.held.buf), err
}
