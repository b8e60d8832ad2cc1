// Package modeswitch exercises exhaustiveness over the guarded
// enums.
package modeswitch

import (
	"resched/internal/core"
	"resched/internal/resbook"
)

// Local is an unguarded enum; partial switches over it are not this
// analyzer's business.
type Local int

const (
	A Local = iota
	B
)

func full(m core.BLMethod) string {
	switch m {
	case core.BL1:
		return "1"
	case core.BLAll, core.BLCPA:
		return "grouped"
	case core.BLCPAR:
		return "cpar"
	}
	return ""
}

func missing(m core.BLMethod) string {
	switch m { // want "missing BLCPA, BLCPAR"
	case core.BL1:
		return "1"
	case core.BLAll:
		return "all"
	}
	return ""
}

func loudDefault(m core.BLMethod) string {
	switch m {
	case core.BL1:
		return "1"
	default:
		panic("unhandled bottom-level method")
	}
}

func unguarded(l Local) string {
	switch l {
	case A:
		return "a"
	}
	return ""
}

func noTag(s resbook.Status) string {
	switch {
	case s == resbook.Pending:
		return "pending"
	}
	return ""
}
