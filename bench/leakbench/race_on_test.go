//go:build race

package main

// raceEnabled shrinks the smoke test further under the race detector.
const raceEnabled = true
