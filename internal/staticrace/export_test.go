package staticrace

import (
	"haccrg/internal/gpu"
	"haccrg/internal/isa"
)

// ReplayAccess is one shared or global access of a replayed thread.
// Shared addresses are window-relative.
type ReplayAccess struct {
	PC     int
	Space  isa.Space
	Addr   uint64
	Size   int
	Write  bool
	Atomic bool
}

// ReplayThread is one thread's replay. OK means the thread ran to
// Exit taint-free within budget, so Accesses is its whole access
// sequence in program order.
type ReplayThread struct {
	Block, Tid int
	OK         bool
	Accesses   []ReplayAccess
}

// ReplayTraces replays every thread of k as Analyze does and returns
// the per-thread traces; nil when the launch exceeds the thread budget.
func ReplayTraces(k *gpu.Kernel, conf Config) ([]ReplayThread, error) {
	if err := k.Prog.Validate(); err != nil {
		return nil, err
	}
	cfg, err := BuildCFG(k.Prog)
	if err != nil {
		return nil, err
	}
	rr := newAnalyzer(k, cfg, conf.withDefaults()).replayKernel()
	if rr == nil {
		return nil, nil
	}
	out := make([]ReplayThread, len(rr.threads))
	for i, th := range rr.threads {
		out[i] = ReplayThread{Block: th.bid, Tid: th.tid, OK: th.ok}
		for _, ac := range th.acc {
			sp := isa.SpaceGlobal
			if ac.shared() {
				sp = isa.SpaceShared
			}
			out[i].Accesses = append(out[i].Accesses, ReplayAccess{
				PC: int(ac.pc), Space: sp, Addr: ac.addr, Size: int(ac.size),
				Write: ac.write(), Atomic: ac.atomic(),
			})
		}
	}
	return out, nil
}
