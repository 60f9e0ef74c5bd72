package dataset

// IsCanonical reports whether ReadJSON decodes data on the one-pass
// canonical path rather than through encoding/json.
func IsCanonical(data []byte) bool {
	_, ok := decodeCanonical(string(data))
	return ok
}

// ParseTableCSVChunks parses a ReadTableCSV body in at most chunks
// chunks.
func ParseTableCSVChunks(body string, chunks int) (*Table, error) {
	return parseTableCSV(body, chunks)
}
