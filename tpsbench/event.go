package main

import (
	"reflect"

	"github.com/tps-p2p/tps/internal/core/codec"
	"github.com/tps-p2p/tps/internal/core/typereg"
)

// SkiRental is the benchmark's event: the paper's ski-rental offer
// (§4.3.1) plus the sequence number that lets the checker regenerate
// it. Note carries the filler that brings a padded event to the
// paper's 1910-byte message size; it is empty on unpadded events.
type SkiRental struct {
	Seq          uint64
	Shop         string
	Brand        string
	Price        float64
	NumberOfDays float64
	Note         string
}

// The typed codec encodes through an interface envelope, so gob must
// know SkiRental before the layer timings encode it outside a platform.
// A registry registers it under the name every platform uses.
func init() {
	if _, err := typereg.New().Register(reflect.TypeOf(SkiRental{}), nil); err != nil {
		panic(err)
	}
}

// probeBase numbers the set-up probes, far above any workload sequence,
// so the checker can tell them from the events it verifies.
const probeBase = uint64(1) << 62

var (
	shops  = []string{"XTremShop", "AlpSports", "GlacierGear", "PowderPro"}
	brands = []string{"Salomon", "Atomic", "Rossignol", "K2", "Head", "Fischer"}
)

// splitmix64 is the generator's mixing step: a pure function of its
// input, so an event depends on (seed, seq) alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// genEvent regenerates event seq of the run seeded with seed. noteLen
// is the filler length (0 for unpadded events). The benchmark calls it
// once to make the published events and again, independently, to check
// what was delivered.
func genEvent(seed int64, seq uint64, noteLen int) SkiRental {
	x := splitmix64(uint64(seed)*0x100000001b3 ^ seq)
	ev := SkiRental{
		Seq:          seq,
		Shop:         shops[x%uint64(len(shops))],
		Brand:        brands[(x>>8)%uint64(len(brands))],
		Price:        float64(8+(x>>16)%40) + 0.5*float64((x>>24)&1),
		NumberOfDays: float64(1 + (x>>32)%14),
	}
	if noteLen > 0 {
		note := make([]byte, noteLen)
		r := x
		for i := range note {
			if i%8 == 0 {
				r = splitmix64(r)
			}
			note[i] = 'a' + byte(r>>(8*(i%8)))%26
		}
		ev.Note = string(note)
	}
	return ev
}

// noteLenFor returns the filler length that makes a gob-encoded event
// about target bytes long, the size the paper's measurements used.
func noteLenFor(target int) int {
	if target <= 0 {
		return 0
	}
	n := 0
	for i := 0; i < 4; i++ {
		b, err := codec.Gob{}.Encode(genEvent(1, 1, n))
		if err != nil {
			return n
		}
		n += target - len(b)
		if n < 0 {
			return 0
		}
	}
	return n
}
