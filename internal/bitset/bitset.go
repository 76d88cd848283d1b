// Package bitset is a packed, growable bit vector over small non-negative
// integers. The message buffers keep one per handle for residency and one
// for every handle they have ever held; the engine's first-deliverer record
// keeps one per delivered message over destination node IDs; the interest
// tables keep theirs over interned keyword IDs and run an exchange round's
// set algebra on them a word (64 rows) at a time. A set grows only to the
// largest index ever added to it.
package bitset

// Set is a little-endian packed bit vector. The zero value is empty.
type Set []uint64

// Has reports whether bit i is set; bits past the end read as clear.
func (s Set) Has(i int) bool {
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Add sets bit i, growing the set as needed.
func (s *Set) Add(i int) {
	w := i >> 6
	for w >= len(*s) {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(i) & 63)
}

// Remove clears bit i; clearing past the end is a no-op.
func (s Set) Remove(i int) {
	if w := i >> 6; w < len(s) {
		s[w] &^= 1 << (uint(i) & 63)
	}
}

// Word returns the wi'th word, reading words past the end as empty, so sets
// of different lengths can be combined word by word.
func (s Set) Word(wi int) uint64 {
	if wi < len(s) {
		return s[wi]
	}
	return 0
}

// Reset returns s zeroed and sized to n words, reusing its backing array.
func (s Set) Reset(n int) Set {
	if cap(s) < n {
		return make(Set, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
