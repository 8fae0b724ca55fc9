//go:build race

package vfl

// raceEnabled reports a -race build. Its instrumentation allocates, so
// allocation counts are pinned only without it.
const raceEnabled = true
