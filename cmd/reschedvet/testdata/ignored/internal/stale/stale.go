// Package stale is an e2e fixture: an ignore directive naming an
// analyzer the suite does not have, which reschedvet must report
// instead of silently accepting.
package stale

func drain(ch chan int) {
	for range ch { //reschedvet:ignore lockcycle left behind by a deleted analyzer
	}
}
