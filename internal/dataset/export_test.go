package dataset

// IsCanonical reports whether ReadJSON decodes data on the one-pass
// canonical path rather than through encoding/json.
func IsCanonical(data []byte) bool {
	_, ok := decodeCanonical(data)
	return ok
}
