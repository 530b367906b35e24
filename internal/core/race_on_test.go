//go:build race

package core

// raceEnabled reports a -race build. Its sync.Pool drops a share of the
// cursors put back, so allocation counts are not pinned there.
const raceEnabled = true
