package resbook

import "sync"

// H exercises the directive hygiene reports.
type H struct {
	mu   sync.Mutex
	data int
}

//reschedvet:holds gone
func (h *H) badContract() {} // want "lock contract on badContract names gone, which does not resolve to a mutex field"

//reschedvet:holds data
func (h *H) notAMutex() {} // want "lock contract on notAMutex names data, which does not resolve to a mutex field"

//reschedvet:acquires
func (h *H) empty() {} // want "acquires directive on empty names no mutex"

// use keeps the otherwise-unused declarations referenced.
var _ = []any{(*H).badContract, (*H).notAMutex, (*H).empty}
