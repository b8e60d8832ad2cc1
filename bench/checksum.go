package main

import (
	"math"

	"resched/internal/model"
)

// checksum folds every result of a round into one number (FNV-1a over
// 64-bit words), so that rounds — and runs of one seed — can be
// compared without keeping their outputs. Book versions and
// reservation IDs are left out: they grow from round to round while
// the schedules must not change.
type checksum struct{ h uint64 }

func newChecksum() *checksum { return &checksum{h: 14695981039346656037} }

func (c *checksum) word(v uint64) {
	c.h ^= v
	c.h *= 1099511628211
}

func (c *checksum) sum() uint64 { return c.h }

// schedule folds one schedule: its objective values and every task's
// placement, read through at.
func (c *checksum) schedule(turnaround model.Duration, cpuHours float64, tasks int, at func(t int) (procs int, start, end model.Time)) {
	c.word(uint64(turnaround))
	c.word(math.Float64bits(cpuHours))
	for t := 0; t < tasks; t++ {
		procs, start, end := at(t)
		c.word(uint64(procs))
		c.word(uint64(start))
		c.word(uint64(end))
	}
}
