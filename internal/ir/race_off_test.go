//go:build !race

package ir

const raceEnabled = false
