package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mining"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// TestConfigJSONRoundTrip pins the request-body contract: every Config
// field survives marshal → unmarshal, including the enum types and the
// nested extraction options.
func TestConfigJSONRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero", Config{}},
		{"typical", Config{
			Algorithm:  AlgEclatKCPlus,
			MinSupport: 0.25,
		}},
		{"everything", Config{
			Extraction: transact.Options{
				Topological:     true,
				IncludeDisjoint: true,
				Distance:        true,
				Thresholds:      qsr.DistanceThresholds{VeryCloseMax: 10, CloseMax: 50},
				IncludeFarFrom:  true,
				Directional:     true,
				IncludeIsA:      true,
				Granularity:     transact.InstanceLevel,
				Index:           transact.NoIndex,
				Discretizer:     transact.EqualWidth{Bins: 4},
			},
			Algorithm:     AlgAprioriKC,
			MinSupport:    0.07,
			Dependencies:  []mining.Pair{{A: "contains_street", B: "contains_illuminationPoint"}, {A: "x", B: "y"}},
			MinConfidence: 0.9,
			GenerateRules: true,
			PostFilter:    MaximalFilter,
		}},
		{"thresholds discretizer", Config{
			Extraction: transact.Options{
				Topological: true,
				Discretizer: transact.Thresholds{Cuts: []float64{3.2}, Labels: []string{"low", "high"}},
			},
			Algorithm:  AlgApriori,
			MinSupport: 0.5,
		}},
		{"equal frequency discretizer", Config{
			Extraction: transact.Options{
				Topological: true,
				Discretizer: transact.EqualFrequency{Bins: 3},
			},
			MinSupport: 0.5,
			PostFilter: ClosedFilter,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := json.Marshal(tc.cfg)
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			var back Config
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("unmarshal %s: %v", data, err)
			}
			if !reflect.DeepEqual(tc.cfg, back) {
				t.Errorf("round trip changed the config:\n  in:  %+v\n  out: %+v\n  json: %s", tc.cfg, back, data)
			}
			// The encoding must be deterministic: the server's result
			// cache keys on the marshaled bytes.
			again, err := json.Marshal(back)
			if err != nil {
				t.Fatalf("re-marshal: %v", err)
			}
			if string(data) != string(again) {
				t.Errorf("marshal not deterministic: %s vs %s", data, again)
			}
		})
	}
}

// TestConfigJSONEnumNames pins the canonical enum spellings on the wire.
func TestConfigJSONEnumNames(t *testing.T) {
	data, err := json.Marshal(Config{
		Algorithm:  AlgEclatKCPlus,
		MinSupport: 0.5,
		PostFilter: ClosedFilter,
		Extraction: transact.Options{Topological: true, Granularity: transact.InstanceLevel, Index: transact.NoIndex},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"algorithm":"eclat-kc+"`,
		`"postFilter":"closed"`,
		`"granularity":"instance"`,
		`"index":"none"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshaled config %s missing %s", data, want)
		}
	}
}

// TestConfigJSONRejectsBadInput pins the error behaviour for malformed
// request bodies: unknown enum names, unknown keys, and structural junk
// all fail with a descriptive error instead of mining with defaults.
func TestConfigJSONRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown algorithm", `{"algorithm":"apriori-kd+","minSupport":0.5}`, "unknown algorithm"},
		{"unknown post filter", `{"algorithm":"apriori","postFilter":"open"}`, "unknown post filter"},
		{"unknown counting", `{"algorithm":"apriori","counting":"vertical"}`, `unknown field "counting"`},
		{"unknown granularity", `{"algorithm":"apriori","extraction":{"granularity":"galaxy"}}`, "unknown granularity"},
		{"unknown index", `{"algorithm":"apriori","extraction":{"index":"btree"}}`, "unknown index kind"},
		{"unknown discretizer", `{"algorithm":"apriori","extraction":{"discretizer":{"kind":"psychic"}}}`, "unknown discretizer kind"},
		{"unknown field", `{"algoritm":"apriori"}`, "unknown field"},
		{"half dependency", `{"algorithm":"apriori","dependencies":[{"a":"x"}]}`, "dependency pair"},
		{"not an object", `[1,2,3]`, "decoding config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cfg Config
			err := json.Unmarshal([]byte(tc.body), &cfg)
			if err == nil {
				t.Fatalf("unmarshal %s succeeded, want error containing %q", tc.body, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestConfigJSONDefaults: an omitted field decodes to the documented
// default (apriori algorithm, no post filter, zero extraction — which
// RunContext replaces with DefaultOptions).
func TestConfigJSONDefaults(t *testing.T) {
	var cfg Config
	if err := json.Unmarshal([]byte(`{"minSupport":0.4}`), &cfg); err != nil {
		t.Fatal(err)
	}
	want := Config{MinSupport: 0.4}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("decoded %+v, want %+v", cfg, want)
	}
	if !cfg.Extraction.IsZero() {
		t.Error("omitted extraction must decode to the zero Options")
	}
}

// TestConfigJSONCustomDiscretizerFails: a Config holding a custom
// Discretizer implementation has no wire form and must say so.
func TestConfigJSONCustomDiscretizerFails(t *testing.T) {
	cfg := Config{
		Extraction: transact.Options{Topological: true, Discretizer: customDisc{}},
		MinSupport: 0.5,
	}
	if _, err := json.Marshal(cfg); err == nil {
		t.Fatal("marshal with custom discretizer must fail")
	}
}

type customDisc struct{}

func (customDisc) Fit([]float64) (*transact.FittedDiscretizer, error) {
	return &transact.FittedDiscretizer{Labels: []string{"only"}}, nil
}
