package colocation_test

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/colocation"
	"repro/internal/dataset"
	"repro/internal/geom"
)

// decodeConfig decodes a co-location config the way POST /v1/colocate
// does: strictly (dataset.DecodeStrict: one document, no unknown
// field), then Validate.
func decodeConfig(data []byte) (colocation.Config, error) {
	var cfg colocation.Config
	if err := dataset.DecodeStrict(data, &cfg); err != nil {
		return colocation.Config{}, err
	}
	return cfg, cfg.Validate()
}

// FuzzColocationConfig fuzzes the two steps POST /v1/colocate applies
// to a config, in the ReadJSON mold: arbitrary bytes must either produce
// an error or a Config that validates and survives a marshal/reparse
// round trip unchanged.
func FuzzColocationConfig(f *testing.F) {
	seeds := []string{
		`{"distance":2,"minPI":0.4}`,
		`{"distance":0,"minPI":1}`,
		`{"distance":1.5,"minPI":0.25,"maxSize":3,"parallelism":4}`,
		`{"distance":1,"minPI":0.5,"engine":"joinless"}`,
		`{"distance":1,"minPI":0.5,"engine":"clique","topK":2}`,
		`{"distance":1,"minPI":0.5,"engine":"starjoin"}`,
		`{"distance":1,"minPI":0.5,"topK":-1}`,
		`{"distance":1e-9,"minPI":0.0001}`,
		`{"distance":-1,"minPI":0.5}`,
		`{"distance":1,"minPI":0.5,"unknown":true}`,
		`{"distance":1,"minPI":0.5} trailing`,
		`{"minPI":0.5}`,
		`{}`,
		`null`,
		`[]`,
		`{"distance":"far","minPI":0.5}`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeConfig(data)
		if err != nil {
			return
		}
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails Validate: %v (%+v)", verr, cfg)
		}
		out, merr := json.Marshal(cfg)
		if merr != nil {
			t.Fatalf("accepted config does not marshal: %v", merr)
		}
		back, perr := decodeConfig(out)
		if perr != nil {
			t.Fatalf("marshalled config does not reparse: %v (%s)", perr, out)
		}
		if back != cfg {
			t.Fatalf("round trip changed config: %+v -> %+v", cfg, back)
		}
	})
}

// fuzzDistances are the neighbourhood distances FuzzColocationBruteForce
// picks from: inside, at and beyond the Eps band, and two ordinary
// radii.
var fuzzDistances = []float64{0, 5e-10, geom.Eps, 0.5, 2}

// fuzzScene decodes a tiny co-location scene: byte 0 picks a distance
// from fuzzDistances, byte 1 a MinPI in {0.1, ..., 1}, and every further
// 4 bytes one instance of at most 3 types × 6 instances: its type (low
// two bits, mod 3) and shape (bit 2), a coarse position on a 0.25 grid,
// and a signed fine offset per axis on a 2^-30 grid. An instance is a
// point or a 0.25-sided square with that corner, so gaps below geom.Eps
// occur as often as ordinary ones.
func fuzzScene(data []byte) (*dataset.Dataset, colocation.Config, bool) {
	if len(data) < 2 {
		return nil, colocation.Config{}, false
	}
	cfg := colocation.Config{
		Distance: fuzzDistances[int(data[0])%len(fuzzDistances)],
		MinPI:    float64(data[1]%10+1) / 10,
	}
	layers := []*dataset.Layer{dataset.NewLayer("A"), dataset.NewLayer("B"), dataset.NewLayer("C")}
	fine := math.Ldexp(1, -30)
	for in := data[2:]; len(in) >= 4; in = in[4:] {
		l := layers[in[0]&3%3]
		if l.Len() == 6 {
			continue
		}
		x := float64(in[1]&7)*0.25 + float64(int8(in[2]))*fine
		y := float64(in[1]>>3&7)*0.25 + float64(int8(in[3]))*fine
		if in[0]&4 != 0 {
			l.AddGeometry(geom.Rect(x, y, x+0.25, y+0.25))
		} else {
			l.AddGeometry(geom.Pt(x, y))
		}
	}
	return &dataset.Dataset{Reference: layers[0], Relevant: layers[1:]}, cfg, true
}

// FuzzColocationBruteForce is the engine-vs-oracle differential over
// tiny decoded scenes (see fuzzScene): Mine at GOMAXPROCS 1 and 4 must
// report exactly MineBruteForce's prevalent patterns, types and
// instance count. The seeds are the Eps-band scenes of
// TestColocationMatchesBruteForceOnGeneratedScenes on the 2^-30 grid
// (two points one grid step apart, and two squares one step apart) at
// Distance 0 and 5e-10, and one scene of all three types at Distance
// 0.5.
func FuzzColocationBruteForce(f *testing.F) {
	points := []byte{0, 1, 0, 0, 0, 0, 1, 0, 1, 0}
	squares := []byte{0, 1, 4, 0, 0, 0, 5, 1, 1, 0}
	for _, scene := range [][]byte{points, squares} {
		for dist := byte(0); dist < 2; dist++ {
			f.Add(append([]byte{dist}, scene[1:]...))
		}
	}
	f.Add([]byte{3, 1, 0, 0, 0, 0, 1, 1, 0, 0, 2, 2, 0, 0, 4, 9, 3, 0, 5, 10, 0, 0, 6, 18, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, cfg, ok := fuzzScene(data)
		if !ok {
			return
		}
		want, err := colocation.MineBruteForce(ds, cfg)
		if err != nil {
			t.Fatalf("oracle: %v", err)
		}
		for _, procs := range []int{1, 4} {
			got := mustMineAt(t, procs, ds, cfg)
			if !reflect.DeepEqual(got.Prevalent, want.Prevalent) || !reflect.DeepEqual(got.Types, want.Types) || got.Instances != want.Instances {
				t.Fatalf("GOMAXPROCS %d, distance %v, minPI %v: engine != oracle:\n got %v %d %+v\nwant %v %d %+v",
					procs, cfg.Distance, cfg.MinPI, got.Types, got.Instances, got.Prevalent, want.Types, want.Instances, want.Prevalent)
			}
		}
	})
}
