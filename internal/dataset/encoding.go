package dataset

// Encoding is a scene's canonical bytes, exactly those WriteJSON writes,
// with the byte span of every feature's fragment in them, so that
// EncodeSuccessor can copy the fragments of the features a mutation
// leaves untouched instead of rendering them again. An Encoding belongs
// to the layers it was rendered from, which must not change while it is
// in use; it is never modified and is safe for concurrent use.
type Encoding struct {
	// Bytes are the canonical bytes.
	Bytes []byte
	// layers are the layers rendered, the reference layer first.
	layers []*Layer
	// offs holds for each layer, with n features, n+1 offsets into
	// Bytes: feature i's fragment is Bytes[off[i]:off[i+1]-1], from the
	// newline before its '{' to its '}', and the byte between two
	// fragments is their ',' separator. off[n] is placed as though a
	// separator followed the last fragment.
	offs [][]int
}

// Encode renders d as WriteJSON does into a buffer of capacity sizeHint
// and records where every feature's fragment lies.
func (d *Dataset) Encode(sizeHint int) (*Encoding, error) {
	e := encoder{b: make([]byte, 0, sizeHint), offs: make([][]int, 0, 1+len(d.Relevant))}
	if err := e.dataset(d); err != nil {
		return nil, err
	}
	return e.encoding(d), nil
}

// EncodeSuccessor renders nd, which parent.ApplyOps returned together
// with cs, to the bytes nd.WriteJSON writes. enc is parent's Encoding:
// the fragments of features cs leaves untouched are copied from it, and
// only updated and inserted features are rendered. When enc was not
// rendered from parent's layers, or nd's layers are not parent's as cs
// describes them, nd is rendered in full instead; the bool reports
// whether fragments were copied. A nil enc always renders in full.
func EncodeSuccessor(enc *Encoding, parent, nd *Dataset, cs *ChangeSet) (*Encoding, bool, error) {
	from, ok := successorPlan(enc, parent, nd, cs)
	if !ok {
		hint := 0
		if enc != nil {
			hint = len(enc.Bytes)
		}
		e, err := nd.Encode(hint)
		return e, false, err
	}
	// A one-feature edit changes the length by a few bytes; the slack
	// keeps a batch of small edits from growing the buffer.
	e := encoder{
		b:    make([]byte, 0, len(enc.Bytes)+len(enc.Bytes)/16+1024),
		offs: make([][]int, 0, len(from)),
		src:  enc,
		from: from,
	}
	if err := e.dataset(nd); err != nil {
		return nil, false, err
	}
	return e.encoding(nd), true, nil
}

// encoding wraps what a recording encoder rendered from d.
func (e *encoder) encoding(d *Dataset) *Encoding {
	return &Encoding{Bytes: e.b, layers: append([]*Layer{d.Reference}, d.Relevant...), offs: e.offs}
}

// successorPlan says, for EncodeSuccessor, which fragment of enc each
// feature of nd copies (see encoder.from), or reports false when enc
// does not match parent's layers or nd's layers do not follow from
// parent's by cs.
func successorPlan(enc *Encoding, parent, nd *Dataset, cs *ChangeSet) ([][]int, bool) {
	if enc == nil || len(enc.layers) != 1+len(parent.Relevant) || len(nd.Relevant) != len(parent.Relevant) {
		return nil, false
	}
	from := make([][]int, len(enc.layers))
	for li, pl := range enc.layers {
		nl := nd.Reference
		if li > 0 {
			if pl != parent.Relevant[li-1] {
				return nil, false
			}
			nl = nd.Relevant[li-1]
		} else if pl != parent.Reference {
			return nil, false
		}
		if len(enc.offs[li]) != len(pl.Features)+1 || nl.Type != pl.Type {
			return nil, false
		}
		if nl == pl {
			continue // ApplyOps shares the layers it leaves untouched
		}
		var ok bool
		if from[li], ok = layerPlan(pl, nl, cs.Layer(nl.Type)); !ok {
			return nil, false
		}
	}
	return from, true
}

// layerPlan maps each feature of nl, which ApplyOps derived from pl with
// the diff ld, to the index of the pl feature whose fragment it copies,
// or to -1 when it is updated or inserted and must be rendered. ApplyOps
// keeps the features it does not delete in order, updated ones in
// place, and appends the inserted ones, so nl must be pl without the
// deleted IDs followed by len(ld.Inserted) features; ok is false when it
// is not. A copied feature's ID is neither deleted, updated nor inserted
// by the batch, so the feature is the parent's, unchanged.
func layerPlan(pl, nl *Layer, ld *LayerDiff) ([]int, bool) {
	var deleted, updated map[string]bool
	inserted := 0
	if ld != nil {
		deleted, updated, inserted = setOf(ld.Deleted), setOf(ld.Updated), len(ld.Inserted)
	}
	kept := len(nl.Features) - inserted
	if kept < 0 {
		return nil, false
	}
	from := make([]int, len(nl.Features))
	p := 0
	for i := range from {
		if i >= kept {
			from[i] = -1
			continue
		}
		for p < len(pl.Features) && deleted[pl.Features[p].ID] {
			p++
		}
		id := nl.Features[i].ID
		if p == len(pl.Features) || pl.Features[p].ID != id {
			return nil, false
		}
		from[i] = p
		if updated[id] {
			from[i] = -1
		}
		p++
	}
	for ; p < len(pl.Features); p++ {
		if !deleted[pl.Features[p].ID] {
			return nil, false
		}
	}
	return from, true
}

// setOf returns the set of ids, nil when there are none.
func setOf(ids []string) map[string]bool {
	if len(ids) == 0 {
		return nil
	}
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}
