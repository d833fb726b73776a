package staticrace

import (
	"fmt"

	"haccrg/internal/isa"
)

// BBlock is a maximal straight-line run of instructions. The range is
// half-open: [Start, End).
type BBlock struct {
	Index      int
	Start, End int
	Succs      []int
	Preds      []int
}

// CFG is the control-flow graph of one isa.Program. Edges follow the
// per-thread view of execution: a predicated branch forks into its
// taken target and its fall-through; reconvergence is implicit in the
// paths re-merging at the join block. That is exactly the set of paths
// an individual thread can take under the executor's divergence-stack
// scheduling, which is what the dataflow analysis needs.
type CFG struct {
	Prog    *isa.Program
	Blocks  []*BBlock
	blockOf []int // pc -> block index
}

// BlockOf returns the basic block containing pc, or -1.
func (g *CFG) BlockOf(pc int) int {
	if pc < 0 || pc >= len(g.blockOf) {
		return -1
	}
	return g.blockOf[pc]
}

// BuildCFG splits the program into basic blocks and wires successor /
// predecessor edges. The program must already pass isa.Validate; on a
// malformed program BuildCFG returns an error rather than panicking
// (the fuzz harness feeds it raw builder output).
func BuildCFG(p *isa.Program) (*CFG, error) {
	n := len(p.Code)
	if n == 0 {
		return nil, fmt.Errorf("staticrace: empty program %q", p.Name)
	}
	// Leaders: entry, every branch target, every reconvergence point,
	// and every instruction after a branch or exit.
	leader := make([]bool, n+1)
	leader[0] = true
	for pc, in := range p.Code {
		switch in.Op {
		case isa.OpBra:
			if in.Tgt < 0 || in.Tgt >= n {
				return nil, fmt.Errorf("staticrace: %s pc %d: branch target %d out of range", p.Name, pc, in.Tgt)
			}
			leader[in.Tgt] = true
			if pc+1 <= n {
				leader[pc+1] = true
			}
			if in.Pred != isa.NoPred {
				if in.Rcv < 0 || in.Rcv > n {
					return nil, fmt.Errorf("staticrace: %s pc %d: reconvergence %d out of range", p.Name, pc, in.Rcv)
				}
				leader[in.Rcv] = true
			}
		case isa.OpExit:
			if pc+1 <= n {
				leader[pc+1] = true
			}
		}
	}
	g := &CFG{Prog: p, blockOf: make([]int, n)}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || leader[pc] {
			b := &BBlock{Index: len(g.Blocks), Start: start, End: pc}
			g.Blocks = append(g.Blocks, b)
			for i := start; i < pc; i++ {
				g.blockOf[i] = b.Index
			}
			start = pc
		}
	}
	// Successor edges, per the executor's per-thread semantics.
	for _, b := range g.Blocks {
		last := p.Code[b.End-1]
		switch last.Op {
		case isa.OpBra:
			g.addEdge(b.Index, g.blockOf[last.Tgt])
			if last.Pred != isa.NoPred && b.End < n {
				// Fall-through for the lanes whose guard is false.
				g.addEdge(b.Index, g.blockOf[b.End])
			}
		case isa.OpExit:
			if last.Pred != isa.NoPred && b.End < n {
				// Lanes whose guard is false keep running.
				g.addEdge(b.Index, g.blockOf[b.End])
			}
		default:
			if b.End < n {
				g.addEdge(b.Index, g.blockOf[b.End])
			}
		}
	}
	return g, nil
}

func (g *CFG) addEdge(from, to int) {
	fb, tb := g.Blocks[from], g.Blocks[to]
	for _, s := range fb.Succs {
		if s == to {
			return
		}
	}
	fb.Succs = append(fb.Succs, to)
	tb.Preds = append(tb.Preds, from)
}
