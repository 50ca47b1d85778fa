//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; the
// full-scale artifact regeneration skips under it, since instrumented
// code is several times slower.
const raceEnabled = true
