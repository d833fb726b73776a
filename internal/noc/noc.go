// Package noc models the interconnection network between the SM
// clusters and the memory partitions: per-link latency plus a
// throughput reservation per partition port. Requests carry control
// metadata — the paper's sync IDs, fence IDs and atomic IDs travel
// with each global-memory request packet — so packet sizes grow when
// race detection is enabled, which is accounted here.
package noc

// Config describes the network.
type Config struct {
	LatencyCycles  int64 // base one-way traversal latency
	FlitBytes      int   // bytes per flit (32 in the paper's Table I)
	FlitsPerCycle  int64 // injection throughput per partition port
	MetaBytesBase  int   // control header bytes per request packet
	MetaBytesRDU   int   // extra bytes when HAccRG IDs ride along (sync+fence+atomic IDs)
	RDUMetaEnabled bool  // set when global race detection is on
}

// DefaultConfig approximates the paper's crossbar (1 virtual channel,
// 32B flits).
var DefaultConfig = Config{
	LatencyCycles: 20,
	FlitBytes:     32,
	FlitsPerCycle: 1,
	MetaBytesBase: 8,
	MetaBytesRDU:  4, // 8-bit sync + 8-bit fence + 16-bit atomic ID
}

// Network is the reservation-based NoC model. One ingress port per
// partition in each direction.
type Network struct {
	cfg       Config
	toPart    []int64 // next-free cycle per partition ingress port
	fromPart  []int64
	FlitCount int64
}

// New builds a network connecting to nPartitions memory slices.
func New(cfg Config, nPartitions int) *Network {
	return &Network{
		cfg:      cfg,
		toPart:   make([]int64, nPartitions),
		fromPart: make([]int64, nPartitions),
	}
}

func (n *Network) flits(payloadBytes int) int64 {
	b := payloadBytes + n.cfg.MetaBytesBase
	if n.cfg.RDUMetaEnabled {
		b += n.cfg.MetaBytesRDU
	}
	f := int64((b + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes)
	if f < 1 {
		f = 1
	}
	return f
}

// Send models a request packet from an SM to partition part, departing
// at cycle depart with payloadBytes of data (0 for a read request),
// returning the arrival cycle at the partition.
func (n *Network) Send(part int, depart int64, payloadBytes int) int64 {
	return n.traverse(n.toPart, part, depart, payloadBytes)
}

// Reply models a response packet from partition part back to an SM.
func (n *Network) Reply(part int, depart int64, payloadBytes int) int64 {
	return n.traverse(n.fromPart, part, depart, payloadBytes)
}

func (n *Network) traverse(ports []int64, part int, depart int64, payloadBytes int) int64 {
	f := n.flits(payloadBytes)
	start := depart
	if ports[part] > start {
		start = ports[part]
	}
	occupancy := (f + n.cfg.FlitsPerCycle - 1) / n.cfg.FlitsPerCycle
	ports[part] = start + occupancy
	n.FlitCount += f
	return start + occupancy + n.cfg.LatencyCycles
}

// ResetStats clears traffic counters between launches.
func (n *Network) ResetStats() {
	n.FlitCount = 0
}
