package profile

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Compact is a sparse vector in the form the similarity kernel scans: term
// keys interned to process-local ids, ids strictly ascending, Weights[i] the
// weight of IDs[i]. A Compact is dotted with another by scattering one into
// a dense table indexed by id and gathering the other's ids from it, with no
// string hashed. Profile.Summary is the one place a Compact is made, and it
// is immutable once made.
//
// Ids are handed out in first-seen order by a dictionary private to this
// process, so a Compact means nothing outside it: it is never marshalled,
// journaled or put on the wire.
type Compact struct {
	IDs     []uint32
	Weights []float64
}

// Scatter writes c's weights into dense at their ids and returns dense
// resliced to c's largest id + 1, reallocated when its capacity is short.
// Every entry of dense's backing array must be zero on entry; Unscatter
// restores that, so a table can be reused for the next vector.
func (c *Compact) Scatter(dense []float64) []float64 {
	n := 0
	if len(c.IDs) > 0 {
		n = int(c.IDs[len(c.IDs)-1]) + 1
	}
	if cap(dense) < n {
		dense = make([]float64, n)
	}
	dense = dense[:n]
	for i, id := range c.IDs {
		dense[id] = c.Weights[i]
	}
	return dense
}

// Gather returns the sparse dot product of c with the vector Scatter wrote
// into dense. It adds one product per id of c, in ascending id order, and
// stops at the first id past the table, which the scattered vector cannot
// hold. A term the scattered vector lacks adds w·0 = +0, which leaves a sum
// of finite products unchanged, so for finite weights the result equals,
// bit for bit, the merge-join that adds only the matching products in the
// same order.
func (c *Compact) Gather(dense []float64) float64 {
	w := c.Weights[:len(c.IDs)]
	var dot float64
	for i, id := range c.IDs {
		if uint(id) >= uint(len(dense)) {
			break
		}
		dot += w[i] * dense[id]
	}
	return dot
}

// Unscatter zeroes the entries of dense that Scatter(dense) set for c.
func (c *Compact) Unscatter(dense []float64) {
	for _, id := range c.IDs {
		dense[id] = 0
	}
}

// Norm returns the Euclidean norm of c, summed in ascending id order.
func (c *Compact) Norm() float64 {
	var sq float64
	for _, w := range c.Weights {
		sq += w * w
	}
	return math.Sqrt(sq)
}

// sortByID establishes the ascending-id invariant. Two entries share an id
// only when two (category, sub-category, term) paths spell the same flat
// key ("a/b" + "c" and "a" + "b/c"); the heavier one is kept, so the result
// does not depend on the order the entries arrived in.
func (c *Compact) sortByID() {
	sort.Sort((*byID)(c))
	n := 0
	for i, id := range c.IDs {
		if n > 0 && c.IDs[n-1] == id {
			c.Weights[n-1] = max(c.Weights[n-1], c.Weights[i])
			continue
		}
		c.IDs[n], c.Weights[n] = id, c.Weights[i]
		n++
	}
	c.IDs, c.Weights = c.IDs[:n], c.Weights[:n]
}

// rescale scales c's weights by the power of two that brings the largest
// below 1. A cosine does not change, and each weight scales exactly (bar
// any 2^-1000 below the largest, which go subnormal).
func (c *Compact) rescale() {
	var top float64
	for _, w := range c.Weights {
		if math.Abs(w) > top {
			top = math.Abs(w)
		}
	}
	_, exp := math.Frexp(top)
	for i, w := range c.Weights {
		c.Weights[i] = math.Ldexp(w, -exp)
	}
}

type byID Compact

func (c *byID) Len() int           { return len(c.IDs) }
func (c *byID) Less(i, j int) bool { return c.IDs[i] < c.IDs[j] }
func (c *byID) Swap(i, j int) {
	c.IDs[i], c.IDs[j] = c.IDs[j], c.IDs[i]
	c.Weights[i], c.Weights[j] = c.Weights[j], c.Weights[i]
}

// dictionary interns flattened term keys ("category/term",
// "category/sub/term") to dense ids. It is append-only and bounded by the
// vocabulary: it grows only through Profile.Summary, by keys of profiles
// this process was asked to summarize, which is what the process already
// stores. It keeps each key once, as its map key; no Summary holds a key.
type dictionary struct {
	mu  sync.RWMutex
	ids map[string]uint32
}

// terms is the process's one dictionary. It is package state because
// Summary is the single place fingerprints are made and takes no context;
// nothing outside this file reads it.
var terms = dictionary{ids: make(map[string]uint32)}

// idRLocked returns key's id, adding key when it is new. The caller holds
// d.mu for reading, and holds it again on return; key is not retained, so a
// caller may pass a concatenation that lives on its stack.
func (d *dictionary) idRLocked(key string) uint32 {
	if id, ok := d.ids[key]; ok {
		return id
	}
	d.mu.RUnlock()
	d.mu.Lock()
	id, ok := d.ids[key]
	if !ok {
		id = uint32(len(d.ids))
		d.ids[strings.Clone(key)] = id
	}
	d.mu.Unlock()
	d.mu.RLock()
	return id
}
