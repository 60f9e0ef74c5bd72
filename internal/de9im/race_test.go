//go:build race

package de9im

// raceEnabled reports a -race build, whose detector changes allocation
// counts.
const raceEnabled = true
