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

// A mutex is named by the receiver's field name only; the Type.field
// form does not resolve.
//
//reschedvet:holds H.mu
func (h *H) qualified() {} // want "lock contract on qualified names H.mu, which does not resolve to a mutex field"

//reschedvet:holds
func (h *H) empty() {} // want "holds directive on empty names no mutex"

// use keeps the otherwise-unused declarations referenced.
var _ = []any{(*H).badContract, (*H).notAMutex, (*H).qualified, (*H).empty}
