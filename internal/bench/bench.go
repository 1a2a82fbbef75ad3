// Package bench embeds the ISPS benchmark descriptions used by the
// experiments: the MCS6502 microprocessor (the DAA paper's subject), an
// IBM System/370 subset (the DAA team's next case study), the AM2901
// bit-slice ALU, the Manchester Mark-1, and a set of small datapaths
// (GCD, shift-add multiplier, integer square root, counter, traffic-light
// controller).
package bench

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/flow"
	"repro/internal/vt"
)

var sources = map[string]string{
	"mcs6502": MCS6502,
	"ibm370":  IBM370,
	"am2901":  AM2901,
	"mark1":   Mark1,
	"gcd":     GCD,
	"mult8":   Mult8,
	"sqrt":    Sqrt,
	"counter": Counter,
	"traffic": Traffic,
}

// Names lists the benchmarks in alphabetical order.
func Names() []string {
	out := make([]string, 0, len(sources))
	for n := range sources {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Source returns the ISPS text of a benchmark.
func Source(name string) (string, error) {
	src, ok := sources[name]
	if !ok {
		return "", fmt.Errorf("bench: unknown benchmark %q (have %v)", name, Names())
	}
	return src, nil
}

// Load builds a benchmark's validated value trace through the flow
// pipeline's front end. The parse+sema+build work is memoized in the flow
// artifact cache, and every call returns the cached trace itself: treat it
// as read-only. The allocators and core.Replay never write it, so callers
// may hand one loaded trace to any number of syntheses.
func Load(name string) (*vt.Program, error) {
	in, err := Input(name)
	if err != nil {
		return nil, err
	}
	// For tests and tools that own their lifecycle; library code compiles
	// through flow with its own context.
	//daalint:allow ctxflow documented compatibility wrapper
	trace, err := flow.FrontEnd(context.Background(), in)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", name, err)
	}
	return trace, nil
}

// Input returns the benchmark as a flow.Input, for callers that run the
// full pipeline themselves.
func Input(name string) (flow.Input, error) {
	src, err := Source(name)
	if err != nil {
		return flow.Input{}, err
	}
	return flow.Input{Name: name + ".isps", Source: src}, nil
}

// GCD is Euclid's algorithm by repeated subtraction — the smallest
// benchmark with a loop and mutually exclusive branches.
const GCD = `
! Greatest common divisor by repeated subtraction.
processor GCD {
    reg X<15:0>
    reg Y<15:0>
    port in  XIN<15:0>
    port in  YIN<15:0>
    port out R<15:0>
    main run {
        X := XIN
        Y := YIN
        while X neq Y {
            if X gtr Y { X := X - Y } else { Y := Y - X }
        }
        R := X
    }
}`

// Mult8 is the textbook 8x8 shift-add multiplier.
const Mult8 = `
! 8x8 shift-add multiplier: 9-bit high accumulator, product low bits shift into MQ.
processor MULT8 {
    reg MQ<7:0>         ! multiplier, consumed bit by bit; receives product low bits
    reg MD<7:0>         ! multiplicand
    reg ACC<8:0>        ! high partial product with carry bit
    reg CNT<3:0>
    port in  AIN<7:0>
    port in  BIN<7:0>
    port out PRODUCT<15:0>
    main run {
        MQ := AIN
        MD := BIN
        ACC := 0
        CNT := 8
        while CNT neq 0 {
            if MQ<0:0> {
                ACC := (0b0 @ ACC<7:0>) + (0b0 @ MD)
            }
            MQ := ACC<0:0> @ MQ<7:1>
            ACC := ACC srl 1
            CNT := CNT - 1
        }
        PRODUCT := ACC<7:0> @ MQ
    }
}`

// Sqrt is the non-restoring integer square root.
const Sqrt = `
! Non-restoring 16-bit integer square root.
processor SQRT {
    reg REM<15:0>
    reg RT<15:0>
    reg B<15:0>
    port in  NIN<15:0>
    port out ROOT<7:0>
    main run {
        REM := NIN
        RT := 0
        B := 0x4000
        while B neq 0 {
            if REM geq (RT + B) {
                REM := REM - (RT + B)
                RT := (RT srl 1) + B
            } else {
                RT := RT srl 1
            }
            B := B srl 2
        }
        ROOT := RT<7:0>
    }
}`

// Counter is a clearable, enableable 8-bit counter — the quickstart-sized
// benchmark.
const Counter = `
! 8-bit counter with synchronous clear and enable.
processor COUNTER {
    reg CNT<7:0>
    port in  EN
    port in  CLR
    port out VALUE<7:0>
    main tick {
        if CLR {
            CNT := 0
        } else {
            if EN { CNT := CNT + 1 }
        }
        VALUE := CNT
    }
}`

// Traffic is the classic two-road traffic-light controller: a four-state
// Moore machine with a car sensor on the side road.
const Traffic = `
! Traffic-light controller: NS green / NS yellow / EW green / EW yellow.
processor TRAFFIC {
    reg STATE<1:0>
    reg TIMER<3:0>
    port in  CAR        ! car waiting on the east-west road
    port out NSGREEN
    port out NSYELLOW
    port out NSRED
    port out EWGREEN
    port out EWYELLOW
    port out EWRED
    main step {
        decode STATE {
            0: {            ! north-south green
                NSGREEN := 1  NSYELLOW := 0  NSRED := 0
                EWGREEN := 0  EWYELLOW := 0  EWRED := 1
                if CAR and (TIMER geq 4) {
                    STATE := 1
                    TIMER := 0
                } else {
                    TIMER := TIMER + 1
                }
            }
            1: {            ! north-south yellow
                NSGREEN := 0  NSYELLOW := 1  NSRED := 0
                EWGREEN := 0  EWYELLOW := 0  EWRED := 1
                if TIMER geq 1 {
                    STATE := 2
                    TIMER := 0
                } else {
                    TIMER := TIMER + 1
                }
            }
            2: {            ! east-west green
                NSGREEN := 0  NSYELLOW := 0  NSRED := 1
                EWGREEN := 1  EWYELLOW := 0  EWRED := 0
                if TIMER geq 6 {
                    STATE := 3
                    TIMER := 0
                } else {
                    TIMER := TIMER + 1
                }
            }
            otherwise: {    ! east-west yellow
                NSGREEN := 0  NSYELLOW := 0  NSRED := 1
                EWGREEN := 0  EWYELLOW := 1  EWRED := 0
                if TIMER geq 1 {
                    STATE := 0
                    TIMER := 0
                } else {
                    TIMER := TIMER + 1
                }
            }
        }
    }
}`

// Mark1 is the Manchester Mark-1 (the "Baby"): 32 words, 7 instructions —
// the smallest real stored-program machine.
const Mark1 = `
! Manchester Mark-1 prototype ("Baby", 1948): 32 x 32-bit store.
processor MARK1 {
    mem M[0:31]<31:0>
    reg ACC<31:0>
    reg CI<4:0>         ! instruction counter
    reg PI<31:0>        ! present instruction
    main step {
        PI := M[CI]
        decode PI<15:13> {
            0: CI := PI<4:0>                    ! JMP: absolute jump
            1: CI := CI + PI<4:0>               ! JRP: relative jump
            2: ACC := - M[PI<4:0>]              ! LDN: load negated
            3: M[PI<4:0>] := ACC                ! STO: store
            4, 5: ACC := ACC - M[PI<4:0>]       ! SUB: subtract
            6: if ACC<31:31> { CI := CI + 1 }   ! CMP: skip if negative
            otherwise: nop                      ! STP: stop
        }
        CI := CI + 1
    }
}`
