package mem

// DRAMConfig models one GDDR channel behind a memory partition.
type DRAMConfig struct {
	CASLatency  int64 // cycles from service start to first data
	BurstCycles int64 // data-bus occupancy per transaction
	RowBits     int   // log2 of the row size in bytes, for row-hit modelling
	RowHitSave  int64 // cycles saved on a row-buffer hit
	// QueueDepth is read by nothing: no queue is modelled. It stays
	// because journals and manifest keys serialize gpu.Config.
	QueueDepth int
}

// DefaultDRAMConfig approximates the paper's GDDR3 timing at core clock.
var DefaultDRAMConfig = DRAMConfig{
	CASLatency:  100,
	BurstCycles: 12, // 128B/12cyc x 8 channels ~ 85B/cycle at core clock (GT200-class)
	RowBits:     11, // 2KB rows
	RowHitSave:  60,
	QueueDepth:  32,
}

// DRAM is the reservation-based timing model for one channel. It also
// owns the channel's bandwidth counters, which produce Figure 9's
// DRAM bandwidth-utilization series.
type DRAM struct {
	cfg DRAMConfig

	busFree  int64 // cycle at which the data bus is next free
	openRow  uint64
	rowValid bool

	// Stats.
	BusyCycles int64 // data-bus busy cycles (the utilization numerator)
	Reads      int64
	Writes     int64
}

// NewDRAM builds a channel model.
func NewDRAM(cfg DRAMConfig) *DRAM { return &DRAM{cfg: cfg} }

// Service schedules one transaction (a line read or write) arriving at
// the controller at the given cycle, returning its completion cycle.
func (d *DRAM) Service(arrival int64, addr uint64, write bool) int64 {
	start := arrival
	if d.busFree > start {
		start = d.busFree
	}
	lat := d.cfg.CASLatency
	row := addr >> uint(d.cfg.RowBits)
	if d.rowValid && row == d.openRow {
		lat -= d.cfg.RowHitSave
		if lat < d.cfg.BurstCycles {
			lat = d.cfg.BurstCycles
		}
	}
	d.openRow = row
	d.rowValid = true
	d.busFree = start + d.cfg.BurstCycles
	d.BusyCycles += d.cfg.BurstCycles
	if write {
		d.Writes++
	} else {
		d.Reads++
	}
	return start + lat
}

// Utilization returns the fraction of the data bus occupied over a run
// of totalCycles cycles.
func (d *DRAM) Utilization(totalCycles int64) float64 {
	if totalCycles <= 0 {
		return 0
	}
	u := float64(d.BusyCycles) / float64(totalCycles)
	if u > 1 {
		u = 1
	}
	return u
}

// ResetStats clears counters between kernel launches while keeping
// row-buffer state.
func (d *DRAM) ResetStats() {
	d.BusyCycles = 0
	d.Reads = 0
	d.Writes = 0
}
