package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mining"
	"repro/internal/qsr"
	"repro/internal/transact"
)

// This file defines the JSON form of Config — the request-body contract
// of the qsrmined HTTP service and a stable on-disk format for saved run
// configurations. Every field round-trips; the enum fields (algorithm,
// post filter, granularity, index) are spelled with their canonical
// names via the types' TextMarshalers, and unknown names or unknown JSON
// keys are rejected with a descriptive error rather than silently
// ignored.

// jsonConfig is the wire form of Config. Pointer/omitempty fields keep
// the canonical encoding minimal, which matters because the server's
// result cache keys on the marshaled bytes.
type jsonConfig struct {
	Algorithm     Algorithm       `json:"algorithm"`
	MinSupport    float64         `json:"minSupport"`
	Dependencies  []jsonPair      `json:"dependencies,omitempty"`
	MinConfidence float64         `json:"minConfidence,omitempty"`
	GenerateRules bool            `json:"generateRules,omitempty"`
	PostFilter    PostFilter      `json:"postFilter,omitempty"`
	Extraction    *jsonExtraction `json:"extraction,omitempty"`
}

// jsonPair spells one Φ dependency pair.
type jsonPair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// jsonExtraction is the wire form of transact.Options, less its two
// Go-only fields: NoPrepare, and the pool width, so a request's pools
// are GOMAXPROCS wide.
type jsonExtraction struct {
	Topological     bool                 `json:"topological,omitempty"`
	IncludeDisjoint bool                 `json:"includeDisjoint,omitempty"`
	Distance        bool                 `json:"distance,omitempty"`
	Thresholds      *jsonThresholds      `json:"thresholds,omitempty"`
	IncludeFarFrom  bool                 `json:"includeFarFrom,omitempty"`
	Directional     bool                 `json:"directional,omitempty"`
	IncludeIsA      bool                 `json:"includeIsA,omitempty"`
	Granularity     transact.Granularity `json:"granularity,omitempty"`
	Index           transact.IndexKind   `json:"index,omitempty"`
	Discretizer     *jsonDiscretizer     `json:"discretizer,omitempty"`
}

// jsonThresholds spells qsr.DistanceThresholds.
type jsonThresholds struct {
	VeryCloseMax float64 `json:"veryCloseMax"`
	CloseMax     float64 `json:"closeMax"`
}

// jsonDiscretizer spells the supported transact.Discretizer
// implementations by kind. Cuts/Labels apply to "thresholds" only.
type jsonDiscretizer struct {
	Kind   string    `json:"kind"`
	Bins   int       `json:"bins,omitempty"`
	Cuts   []float64 `json:"cuts,omitempty"`
	Labels []string  `json:"labels,omitempty"`
}

// MarshalJSON implements json.Marshaler. The encoding is deterministic:
// equal Configs marshal to byte-identical JSON (the server's result-cache
// key relies on this). A Config holding a custom Discretizer
// implementation cannot be represented and returns an error.
func (c Config) MarshalJSON() ([]byte, error) {
	jc := jsonConfig{
		Algorithm:     c.Algorithm,
		MinSupport:    c.MinSupport,
		MinConfidence: c.MinConfidence,
		GenerateRules: c.GenerateRules,
		PostFilter:    c.PostFilter,
	}
	for _, p := range c.Dependencies {
		jc.Dependencies = append(jc.Dependencies, jsonPair{A: p.A, B: p.B})
	}
	if !c.Extraction.IsZero() {
		je, err := extractionToJSON(c.Extraction)
		if err != nil {
			return nil, err
		}
		jc.Extraction = je
	}
	return json.Marshal(jc)
}

// UnmarshalJSON implements json.Unmarshaler. Unknown JSON keys and
// unknown enum spellings are rejected with a descriptive error — this is
// a network-facing contract, and a typoed "algoritm" must not silently
// mine with the zero-value default.
func (c *Config) UnmarshalJSON(data []byte) error {
	var jc jsonConfig
	if err := dataset.DecodeStrict(data, &jc); err != nil {
		return fmt.Errorf("core: decoding config: %w", err)
	}
	out := Config{
		Algorithm:     jc.Algorithm,
		MinSupport:    jc.MinSupport,
		MinConfidence: jc.MinConfidence,
		GenerateRules: jc.GenerateRules,
		PostFilter:    jc.PostFilter,
	}
	for _, p := range jc.Dependencies {
		if p.A == "" || p.B == "" {
			return fmt.Errorf("core: decoding config: dependency pair needs both %q and %q item names", "a", "b")
		}
		out.Dependencies = append(out.Dependencies, mining.Pair{A: p.A, B: p.B})
	}
	if jc.Extraction != nil {
		opts, err := extractionFromJSON(jc.Extraction)
		if err != nil {
			return fmt.Errorf("core: decoding config: %w", err)
		}
		out.Extraction = opts
	}
	*c = out
	return nil
}

// extractionToJSON converts transact.Options to the wire form.
func extractionToJSON(o transact.Options) (*jsonExtraction, error) {
	je := &jsonExtraction{
		Topological:     o.Topological,
		IncludeDisjoint: o.IncludeDisjoint,
		Distance:        o.Distance,
		IncludeFarFrom:  o.IncludeFarFrom,
		Directional:     o.Directional,
		IncludeIsA:      o.IncludeIsA,
		Granularity:     o.Granularity,
		Index:           o.Index,
	}
	if o.Thresholds != (qsr.DistanceThresholds{}) {
		je.Thresholds = &jsonThresholds{VeryCloseMax: o.Thresholds.VeryCloseMax, CloseMax: o.Thresholds.CloseMax}
	}
	if o.Discretizer != nil {
		jd, err := discretizerToJSON(o.Discretizer)
		if err != nil {
			return nil, err
		}
		je.Discretizer = jd
	}
	return je, nil
}

// extractionFromJSON converts the wire form back to transact.Options.
func extractionFromJSON(je *jsonExtraction) (transact.Options, error) {
	o := transact.Options{
		Topological:     je.Topological,
		IncludeDisjoint: je.IncludeDisjoint,
		Distance:        je.Distance,
		IncludeFarFrom:  je.IncludeFarFrom,
		Directional:     je.Directional,
		IncludeIsA:      je.IncludeIsA,
		Granularity:     je.Granularity,
		Index:           je.Index,
	}
	if je.Thresholds != nil {
		o.Thresholds = qsr.DistanceThresholds{VeryCloseMax: je.Thresholds.VeryCloseMax, CloseMax: je.Thresholds.CloseMax}
	}
	if je.Discretizer != nil {
		d, err := discretizerFromJSON(je.Discretizer)
		if err != nil {
			return transact.Options{}, err
		}
		o.Discretizer = d
	}
	return o, nil
}

// discretizerToJSON spells the built-in discretizers; a custom
// implementation has no wire form.
func discretizerToJSON(d transact.Discretizer) (*jsonDiscretizer, error) {
	switch t := d.(type) {
	case transact.EqualWidth:
		return &jsonDiscretizer{Kind: "equalWidth", Bins: t.Bins}, nil
	case transact.EqualFrequency:
		return &jsonDiscretizer{Kind: "equalFrequency", Bins: t.Bins}, nil
	case transact.Thresholds:
		return &jsonDiscretizer{Kind: "thresholds", Cuts: t.Cuts, Labels: t.Labels}, nil
	}
	return nil, fmt.Errorf("core: cannot marshal custom discretizer %T to JSON", d)
}

// discretizerFromJSON inverts discretizerToJSON.
func discretizerFromJSON(jd *jsonDiscretizer) (transact.Discretizer, error) {
	switch jd.Kind {
	case "equalWidth":
		return transact.EqualWidth{Bins: jd.Bins}, nil
	case "equalFrequency":
		return transact.EqualFrequency{Bins: jd.Bins}, nil
	case "thresholds":
		return transact.Thresholds{Cuts: jd.Cuts, Labels: jd.Labels}, nil
	}
	return nil, fmt.Errorf("core: unknown discretizer kind %q (want equalWidth, equalFrequency, or thresholds)", jd.Kind)
}
