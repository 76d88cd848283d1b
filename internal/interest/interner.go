package interest

// Interner maps keyword strings to dense integer IDs. One interner is
// shared by every table in a run, turning the hot-path weight lookups
// (routing's S_u/S_v sums, decay's shared-keyword checks, the growth
// exchange) into array indexing instead of string hashing. Assignment order
// is deterministic for a given run, which keeps simulations reproducible.
type Interner struct {
	ids   map[string]int32
	words []string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// ID returns kw's identifier, assigning the next free one on first sight.
func (in *Interner) ID(kw string) int32 {
	if id, ok := in.ids[kw]; ok {
		return id
	}
	id := int32(len(in.words))
	in.ids[kw] = id
	in.words = append(in.words, kw)
	return id
}

// Lookup returns kw's identifier without assigning; ok is false for unknown
// keywords.
func (in *Interner) Lookup(kw string) (int32, bool) {
	id, ok := in.ids[kw]
	return id, ok
}

// Word returns the keyword for an identifier.
func (in *Interner) Word(id int32) string { return in.words[id] }

// IDs appends the identifiers for kws to dst (assigning as needed) and
// returns the extended slice.
func (in *Interner) IDs(dst []int32, kws []string) []int32 {
	for _, kw := range kws {
		dst = append(dst, in.ID(kw))
	}
	return dst
}
