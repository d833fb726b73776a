package gpu

import (
	"fmt"
	"sort"
	"strings"
)

// HangReason classifies why a launch was aborted.
type HangReason string

// Abort reasons.
const (
	// HangDeadlock: no warp was runnable but blocks remained. No
	// kernel reaches it: a barrier releases once every live warp of
	// its block has arrived, checked at each arrival and each exit, so
	// a live block always holds a ready warp; a barrier some warps
	// never reach because they spin ends in HangCycleBudget instead.
	// It guards the scheduler's own state.
	HangDeadlock HangReason = "deadlock"
	// HangCycleBudget: the simulated-cycle budget (LaunchLimits
	// MaxCycles) was exhausted.
	HangCycleBudget HangReason = "cycle-budget"
	// HangCanceled: the launch context was canceled or its wall-clock
	// deadline expired (the watchdog).
	HangCanceled HangReason = "canceled"
)

// LaunchLimits bounds a kernel launch. The zero value imposes none.
type LaunchLimits struct {
	// MaxCycles aborts the launch once the simulated clock would pass
	// this budget (0 = unlimited).
	MaxCycles int64
}

// WarpDiag describes one warp's scheduler state at abort time.
type WarpDiag struct {
	Warp    int    // warp index within its block
	State   string // "ready", "at-barrier", "done"
	PC      int    // next fetch PC (for parked warps: where they wait)
	ReadyAt int64  // next cycle the warp could issue
}

// BlockDiag describes one live block's barrier-wait state at abort
// time: which warps are parked at which PC, and how far the block's
// current barrier episode got.
type BlockDiag struct {
	Block     int // global block index
	SM        int
	ArrivedAt int // warps waiting at the current barrier
	LiveWarps int // warps not yet exited
	Warps     []WarpDiag
}

// HangError is the structured abort report of a launch that could not
// run to completion: a deadlock, an exhausted cycle budget, or a
// canceled context. It carries per-SM/per-block barrier-wait
// diagnostics; the partial LaunchStats (cycles executed, blocks
// retired) are returned alongside the error by Launch itself.
type HangError struct {
	Kernel     string
	Reason     HangReason
	Cycle      int64 // simulated cycle at abort
	BlocksLeft int   // blocks that had not retired
	Cause      error // the context error for HangCanceled, else nil

	Blocks []BlockDiag // live blocks, ordered by block index
}

// Error implements error with a one-line summary.
func (e *HangError) Error() string {
	var parked, ready int
	for _, b := range e.Blocks {
		for _, w := range b.Warps {
			switch w.State {
			case "at-barrier":
				parked++
			case "ready":
				ready++
			}
		}
	}
	msg := fmt.Sprintf("gpu: kernel %q aborted (%s) at cycle %d: %d blocks unfinished, %d warps at barriers, %d runnable",
		e.Kernel, e.Reason, e.Cycle, e.BlocksLeft, parked, ready)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

// Unwrap exposes the context error for errors.Is(err, context.…).
func (e *HangError) Unwrap() error { return e.Cause }

// Diagnose renders the per-block barrier-wait table: one line per
// resident warp with its state, PC and readiness cycle.
func (e *HangError) Diagnose() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", e.Error())
	for _, b := range e.Blocks {
		fmt.Fprintf(&sb, "  block %d on SM %d: %d/%d warps at barrier\n",
			b.Block, b.SM, b.ArrivedAt, b.LiveWarps)
		for _, w := range b.Warps {
			fmt.Fprintf(&sb, "    warp %2d  %-10s pc=%-4d readyAt=%d\n",
				w.Warp, w.State, w.PC, w.ReadyAt)
		}
	}
	return sb.String()
}

// hangError snapshots the device's live-block state into a HangError.
func (d *Device) hangError(k *Kernel, reason HangReason, cause error) *HangError {
	he := &HangError{
		Kernel:     k.Name,
		Reason:     reason,
		Cycle:      d.now,
		BlocksLeft: d.blocksLeft,
		Cause:      cause,
	}
	ids := make([]int, 0, len(d.liveBlocks))
	for bid := range d.liveBlocks {
		ids = append(ids, bid)
	}
	sort.Ints(ids)
	for _, bid := range ids {
		b := d.liveBlocks[bid]
		bd := BlockDiag{
			Block:     bid,
			SM:        b.sm.id,
			ArrivedAt: b.arrived,
			LiveWarps: b.liveWarp,
		}
		for wi, w := range b.warps {
			state := "ready"
			switch w.state {
			case warpAtBarrier:
				state = "at-barrier"
			case warpDone:
				state = "done"
			}
			bd.Warps = append(bd.Warps, WarpDiag{
				Warp: wi, State: state, PC: w.pc, ReadyAt: w.readyAt,
			})
		}
		he.Blocks = append(he.Blocks, bd)
	}
	return he
}
