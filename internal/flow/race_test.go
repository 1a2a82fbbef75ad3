//go:build race

package flow_test

func init() { raceEnabled = true }
