package core

import "fmt"

// MarshalText implements encoding.TextMarshaler, so an Algorithm can be
// used directly with flag.TextVar, JSON object keys, and config
// decoders. Unknown values fail rather than leak "core.Algorithm(n)".
func (a Algorithm) MarshalText() ([]byte, error) {
	switch a {
	case AlgApriori, AlgAprioriKC, AlgAprioriKCPlus, AlgEclatKCPlus:
		return []byte(a.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown algorithm %d", int(a))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseAlgorithm
// (aliases like "kc+" are accepted).
func (a *Algorithm) UnmarshalText(text []byte) error {
	parsed, err := ParseAlgorithm(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// String implements fmt.Stringer.
func (p PostFilter) String() string {
	switch p {
	case NoPostFilter:
		return "none"
	case ClosedFilter:
		return "closed"
	case MaximalFilter:
		return "maximal"
	}
	return fmt.Sprintf("core.PostFilter(%d)", int(p))
}

// ParsePostFilter inverts PostFilter.String.
func ParsePostFilter(s string) (PostFilter, error) {
	switch s {
	case "none", "":
		return NoPostFilter, nil
	case "closed":
		return ClosedFilter, nil
	case "maximal":
		return MaximalFilter, nil
	}
	return 0, fmt.Errorf("core: unknown post filter %q (want none, closed, or maximal)", s)
}

// MarshalText implements encoding.TextMarshaler.
func (p PostFilter) MarshalText() ([]byte, error) {
	switch p {
	case NoPostFilter, ClosedFilter, MaximalFilter:
		return []byte(p.String()), nil
	}
	return nil, fmt.Errorf("core: cannot marshal unknown post filter %d", int(p))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParsePostFilter.
func (p *PostFilter) UnmarshalText(text []byte) error {
	parsed, err := ParsePostFilter(string(text))
	if err != nil {
		return err
	}
	*p = parsed
	return nil
}
