package colocation

import (
	"fmt"

	"repro/internal/dataset"
)

// ParseConfig decodes and validates a co-location configuration from
// its JSON wire form. Decoding is strict (dataset.DecodeStrict) —
// unknown fields and trailing data are errors — so the CLI, the
// /v1/colocate handler, and the fuzz target all accept exactly the
// same documents.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := dataset.DecodeStrict(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("colocation: decoding config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}
