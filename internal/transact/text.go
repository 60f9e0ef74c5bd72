package transact

import "fmt"

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case TypeLevel:
		return "type"
	case InstanceLevel:
		return "instance"
	}
	return fmt.Sprintf("transact.Granularity(%d)", int(g))
}

// ParseGranularity inverts Granularity.String.
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "type", "":
		return TypeLevel, nil
	case "instance":
		return InstanceLevel, nil
	}
	return 0, fmt.Errorf("transact: unknown granularity %q (want type or instance)", s)
}

// MarshalText implements encoding.TextMarshaler, so a Granularity drops
// into flag.TextVar, JSON, and config decoders.
func (g Granularity) MarshalText() ([]byte, error) {
	switch g {
	case TypeLevel, InstanceLevel:
		return []byte(g.String()), nil
	}
	return nil, fmt.Errorf("transact: cannot marshal unknown granularity %d", int(g))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseGranularity.
func (g *Granularity) UnmarshalText(text []byte) error {
	parsed, err := ParseGranularity(string(text))
	if err != nil {
		return err
	}
	*g = parsed
	return nil
}

// String implements fmt.Stringer.
func (k IndexKind) String() string {
	switch k {
	case RTreeIndex:
		return "rtree"
	case NoIndex:
		return "none"
	}
	return fmt.Sprintf("transact.IndexKind(%d)", int(k))
}

// ParseIndexKind inverts IndexKind.String.
func ParseIndexKind(s string) (IndexKind, error) {
	switch s {
	case "rtree", "":
		return RTreeIndex, nil
	case "none":
		return NoIndex, nil
	}
	return 0, fmt.Errorf("transact: unknown index kind %q (want rtree or none)", s)
}

// MarshalText implements encoding.TextMarshaler.
func (k IndexKind) MarshalText() ([]byte, error) {
	switch k {
	case RTreeIndex, NoIndex:
		return []byte(k.String()), nil
	}
	return nil, fmt.Errorf("transact: cannot marshal unknown index kind %d", int(k))
}

// UnmarshalText implements encoding.TextUnmarshaler via ParseIndexKind.
func (k *IndexKind) UnmarshalText(text []byte) error {
	parsed, err := ParseIndexKind(string(text))
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}
