// Package lifecycle is a chanflow fixture: a driving loop whose wake-up
// channel is never made, next to the armed-timeout idiom that must
// stay clean.
package lifecycle

import "time"

type Engine struct {
	stop chan struct{}
}

func (e *Engine) run(tick time.Duration) {
	var wake chan struct{}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
		case <-wake: // want "select case on nil channel wake never fires"
		}
	}
}

// wait arms its timeout on one path only; the assignment keeps it
// clean, and so does a send case on a made channel.
func (e *Engine) wait(d time.Duration, out chan int) {
	var timeout <-chan time.Time
	if d > 0 {
		timeout = time.After(d)
	}
	select {
	case <-e.stop:
	case <-timeout:
	case out <- 1:
	}
}
