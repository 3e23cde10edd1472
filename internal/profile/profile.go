// Package profile implements the consumer profile model of the paper's §4.4
// (Fig 4.4):
//
//	Profile = <Category, Terms_of_Category, <Sub_Category, Terms_of_Sub_Category>>
//
// A profile is a two-level hierarchy of weighted terms: top-level merchandise
// categories, each holding characteristic terms, each optionally holding
// sub-categories with their own terms. The Profile Agent updates it with the
// paper's learning rule (quoted from Middleton):
//
//	W_ci' = W_ci + α · Σ_j (w_ji · quality_of_feedback)
//
// where W_ci is the weight of term i in category c, w_ji the weight of term
// i in observed "document" j (here: the merchandise the consumer queried,
// bid on, or bought), α the learning rate, and quality_of_feedback scales
// with how strong the behavioural signal is (a purchase says more than a
// browse — §2.3's observational ratings).
//
// The paper does not give numeric feedback qualities; the constants below
// are this implementation's calibration, ordered query < bid < buy, and the
// F4.4 experiment sweeps them.
package profile

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
	"unicode/utf8"
)

// Behaviour identifies the consumer action that produced an observation.
type Behaviour int

// Behaviours, ordered by increasing signal strength.
const (
	BehaviourQuery Behaviour = iota + 1
	BehaviourNegotiate
	BehaviourBid
	BehaviourBuy
)

// String returns the behaviour name.
func (b Behaviour) String() string {
	switch b {
	case BehaviourQuery:
		return "query"
	case BehaviourNegotiate:
		return "negotiate"
	case BehaviourBid:
		return "bid"
	case BehaviourBuy:
		return "buy"
	default:
		return fmt.Sprintf("behaviour(%d)", int(b))
	}
}

// Quality returns the feedback quality for the behaviour: the
// quality_of_feedback factor in the Fig 4.4 update rule.
func (b Behaviour) Quality() float64 {
	switch b {
	case BehaviourQuery:
		return 0.2
	case BehaviourNegotiate:
		return 0.4
	case BehaviourBid:
		return 0.6
	case BehaviourBuy:
		return 1.0
	default:
		return 0
	}
}

// DefaultAlpha is the learning rate used when a Profile is built with
// NewProfile; §4.4 leaves α free, experiment F4.4 sweeps it.
const DefaultAlpha = 0.3

// Errors reported by the package.
var (
	ErrBadAlpha    = errors.New("profile: learning rate must be in (0, 1]")
	ErrNoCategory  = errors.New("profile: observation has no category")
	ErrBadEvidence = errors.New("profile: negative or non-finite term weight in evidence")
)

// SubCategory is the inner level of Fig 4.4: a named bucket of weighted
// terms beneath a category.
type SubCategory struct {
	Name  string             `json:"name"`
	Terms map[string]float64 `json:"terms"`
}

// Category is the outer level of Fig 4.4: a merchandise category with its
// characteristic terms and sub-categories.
type Category struct {
	Name  string                  `json:"name"`
	Terms map[string]float64      `json:"terms"`
	Subs  map[string]*SubCategory `json:"subs,omitempty"`
}

// Profile is one consumer's interest model. The zero value is not usable;
// construct with NewProfile. Profile is not safe for concurrent mutation;
// the Profile Agent serializes updates per user (one PA per mechanism, §3.3).
type Profile struct {
	UserID     string               `json:"user_id"`
	Alpha      float64              `json:"alpha"`
	Categories map[string]*Category `json:"categories"`
	Observed   int                  `json:"observed"` // observations applied
	UpdatedAt  time.Time            `json:"updated_at"`
}

// NewProfile returns an empty profile for userID with DefaultAlpha.
func NewProfile(userID string) *Profile {
	p, _ := NewProfileAlpha(userID, DefaultAlpha)
	return p
}

// NewProfileAlpha returns an empty profile with learning rate alpha.
func NewProfileAlpha(userID string, alpha float64) (*Profile, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("%w: %v", ErrBadAlpha, alpha)
	}
	return &Profile{
		UserID:     userID,
		Alpha:      alpha,
		Categories: make(map[string]*Category),
	}, nil
}

// Evidence is one observed interaction with a piece of merchandise: the
// "document j" of the update rule. Terms carry w_ji weights; SubTerms the
// sub-category's. Weights must be non-negative.
type Evidence struct {
	Category    string
	Terms       map[string]float64
	SubCategory string
	SubTerms    map[string]float64
	Behaviour   Behaviour
	At          time.Time
}

// Observe applies the Fig 4.4 update rule for one piece of evidence:
// every term i gains α · w_ji · quality. Unknown categories, sub-categories
// and terms are created on first sight. Weights stay finite: evidence with
// a negative, NaN or infinite weight is refused, and a sum past the largest
// float64 saturates there.
func (p *Profile) Observe(ev Evidence) error {
	if ev.Category == "" {
		return ErrNoCategory
	}
	for _, w := range ev.Terms {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
			return fmt.Errorf("%w: category terms", ErrBadEvidence)
		}
	}
	for _, w := range ev.SubTerms {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
			return fmt.Errorf("%w: sub-category terms", ErrBadEvidence)
		}
	}

	quality := ev.Behaviour.Quality()
	cat := p.Categories[ev.Category]
	if cat == nil {
		cat = &Category{Name: ev.Category, Terms: make(map[string]float64)}
		p.Categories[ev.Category] = cat
	}
	for term, wji := range ev.Terms {
		addWeight(cat.Terms, term, p.Alpha*wji*quality)
	}
	if ev.SubCategory != "" {
		if cat.Subs == nil {
			cat.Subs = make(map[string]*SubCategory)
		}
		sub := cat.Subs[ev.SubCategory]
		if sub == nil {
			sub = &SubCategory{Name: ev.SubCategory, Terms: make(map[string]float64)}
			cat.Subs[ev.SubCategory] = sub
		}
		for term, wji := range ev.SubTerms {
			addWeight(sub.Terms, term, p.Alpha*wji*quality)
		}
	}
	p.Observed++
	if ev.At.After(p.UpdatedAt) {
		p.UpdatedAt = ev.At
	}
	return nil
}

// addWeight adds the finite gain g >= 0 to m[term], saturating at the
// largest float64. A gain below 2^970, half an ulp of MaxFloat64, cannot
// round a finite sum past it, so only larger gains pay for the clamp.
func addWeight(m map[string]float64, term string, g float64) {
	if g < 0x1p970 {
		m[term] += g
		return
	}
	m[term] = min(m[term]+g, math.MaxFloat64)
}

// Decay multiplies every weight by factor in [0,1), aging out stale
// interests; §5.2's "improve the profile algorithm" direction.
func (p *Profile) Decay(factor float64) {
	if factor < 0 {
		factor = 0
	}
	if factor >= 1 {
		return
	}
	for _, cat := range p.Categories {
		for term := range cat.Terms {
			cat.Terms[term] *= factor
		}
		for _, sub := range cat.Subs {
			for term := range sub.Terms {
				sub.Terms[term] *= factor
			}
		}
	}
}

// Prune removes terms lighter than minWeight, then empty sub-categories and
// categories, bounding profile growth.
func (p *Profile) Prune(minWeight float64) {
	for cname, cat := range p.Categories {
		for term, w := range cat.Terms {
			if w < minWeight {
				delete(cat.Terms, term)
			}
		}
		for sname, sub := range cat.Subs {
			for term, w := range sub.Terms {
				if w < minWeight {
					delete(sub.Terms, term)
				}
			}
			if len(sub.Terms) == 0 {
				delete(cat.Subs, sname)
			}
		}
		if len(cat.Terms) == 0 && len(cat.Subs) == 0 {
			delete(p.Categories, cname)
		}
	}
}

// PreferenceValue returns the aggregate preference weight T for a category:
// the "preference merchandise item value" the Fig 4.5 discard rule compares
// between consumers. It sums the category's term weights including
// sub-categories, saturating at the largest float64 as addWeight does, so
// the gate never compares an infinity.
func (p *Profile) PreferenceValue(category string) float64 {
	cat := p.Categories[category]
	if cat == nil {
		return 0
	}
	var sum float64
	for _, w := range cat.Terms {
		sum += w
	}
	for _, sub := range cat.Subs {
		for _, w := range sub.Terms {
			sum += w
		}
	}
	return min(sum, math.MaxFloat64)
}

// WeightedTerm pairs a term with its weight, for ranked listings.
type WeightedTerm struct {
	Term   string
	Weight float64
}

// TopCategories returns up to n categories ranked by preference value.
func (p *Profile) TopCategories(n int) []WeightedTerm {
	out := make([]WeightedTerm, 0, len(p.Categories))
	for name := range p.Categories {
		out = append(out, WeightedTerm{Term: name, Weight: p.PreferenceValue(name)})
	}
	sortWeighted(out)
	if n >= 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// sortWeighted orders by weight descending, breaking ties by term name so
// listings are deterministic.
func sortWeighted(ts []WeightedTerm) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].Weight != ts[j].Weight {
			return ts[i].Weight > ts[j].Weight
		}
		return ts[i].Term < ts[j].Term
	})
}

// Clone returns a deep copy of the profile.
func (p *Profile) Clone() *Profile {
	out, _, _ := p.CloneUTF8()
	return out
}

// CloneUTF8 is Clone, and also reports whether the user id and every key —
// category, sub-category and term — is valid UTF-8, and refuses a NaN or
// infinite weight with ErrBadEvidence (negative ones pass): Marshal keeps a
// string as it is only then, and cannot encode a non-finite weight. The
// checks ride on the copy's walk over the maps.
func (p *Profile) CloneUTF8() (*Profile, bool, error) {
	out := &Profile{
		UserID:     p.UserID,
		Alpha:      p.Alpha,
		Categories: make(map[string]*Category, len(p.Categories)),
		Observed:   p.Observed,
		UpdatedAt:  p.UpdatedAt,
	}
	valid, finite := utf8.ValidString(p.UserID), true
	for cname, cat := range p.Categories {
		valid = valid && utf8.ValidString(cname)
		nc := &Category{Name: cat.Name, Terms: make(map[string]float64, len(cat.Terms))}
		for t, w := range cat.Terms {
			valid = valid && utf8.ValidString(t)
			finite = finite && !math.IsNaN(w) && !math.IsInf(w, 0)
			nc.Terms[t] = w
		}
		if cat.Subs != nil {
			nc.Subs = make(map[string]*SubCategory, len(cat.Subs))
			for sname, sub := range cat.Subs {
				valid = valid && utf8.ValidString(sname)
				ns := &SubCategory{Name: sub.Name, Terms: make(map[string]float64, len(sub.Terms))}
				for t, w := range sub.Terms {
					valid = valid && utf8.ValidString(t)
					finite = finite && !math.IsNaN(w) && !math.IsInf(w, 0)
					ns.Terms[t] = w
				}
				nc.Subs[sname] = ns
			}
		}
		out.Categories[cname] = nc
	}
	if !finite {
		return out, valid, fmt.Errorf("%w: a weight of user %q's profile", ErrBadEvidence, p.UserID)
	}
	return out, valid, nil
}

// Marshal serializes the profile to JSON.
func (p *Profile) Marshal() ([]byte, error) {
	return json.Marshal(p)
}

// Unmarshal restores a profile serialized by Marshal. The bytes may come
// from a peer, so a shape Marshal never writes is refused (a null category
// or sub-category) or repaired (absent term maps are empty, an absent
// alpha is DefaultAlpha): an accepted profile is safe to summarize and to
// observe into.
func Unmarshal(data []byte) (*Profile, error) {
	var p Profile
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("profile: decoding: %w", err)
	}
	if p.Categories == nil {
		p.Categories = make(map[string]*Category)
	}
	for cname, cat := range p.Categories {
		if cat == nil {
			return nil, fmt.Errorf("profile: decoding: category %q is null", cname)
		}
		if cat.Terms == nil {
			cat.Terms = make(map[string]float64)
		}
		for sname, sub := range cat.Subs {
			if sub == nil {
				return nil, fmt.Errorf("profile: decoding: sub-category %q of %q is null", sname, cname)
			}
			if sub.Terms == nil {
				sub.Terms = make(map[string]float64)
			}
		}
	}
	if p.Alpha == 0 {
		p.Alpha = DefaultAlpha
	}
	return &p, nil
}

// Summary is a cheap immutable fingerprint of a profile: the flattened
// similarity vector plus the per-category preference values, computed once.
// The recommendation engine builds one per SetProfile and its neighbour
// search scores the stored summaries, so it never re-flattens or re-sums
// stored profiles pair by pair. Vec is the profile's terms flattened to
// "category/term" and "category/sub/term" and interned, in the form the
// scoring kernel scans. Norm is summed over Vec in ascending id order, so
// equal profile content gives a bit-identical value, and it feeds cosine
// scoring without a per-pair re-sum. A vector whose norm passes 2^500 is
// scaled by a power of two first (Compact.rescale), which no cosine
// notices: at or under it no square, no product of two weights and no
// product of two norms overflows, so every score is finite.
type Summary struct {
	UserID string
	Vec    *Compact           // flattened terms, interned, ids ascending
	Prefs  map[string]float64 // category -> PreferenceValue; only > 0 entries
	Terms  int                // TermCount()
	Norm   float64            // Vec.Norm(), cached at construction
}

// Summary computes the profile's fingerprint. The returned values are
// snapshots; mutating the profile afterwards does not affect them.
func (p *Profile) Summary() *Summary {
	s := &Summary{
		UserID: p.UserID,
		Prefs:  make(map[string]float64, len(p.Categories)),
		Terms:  p.TermCount(),
	}
	for name := range p.Categories {
		if v := p.PreferenceValue(name); v > 0 {
			s.Prefs[name] = v
		}
	}
	c := &Compact{IDs: make([]uint32, 0, s.Terms), Weights: make([]float64, 0, s.Terms)}
	terms.mu.RLock()
	for cname, cat := range p.Categories {
		for term, w := range cat.Terms {
			c.IDs = append(c.IDs, terms.idRLocked(cname+"/"+term))
			c.Weights = append(c.Weights, w)
		}
		for sname, sub := range cat.Subs {
			for term, w := range sub.Terms {
				c.IDs = append(c.IDs, terms.idRLocked(cname+"/"+sname+"/"+term))
				c.Weights = append(c.Weights, w)
			}
		}
	}
	terms.mu.RUnlock()
	c.sortByID()
	if s.Norm = c.Norm(); s.Norm > 0x1p500 {
		c.rescale()
		s.Norm = c.Norm()
	}
	s.Vec = c
	return s
}

// TermCount reports the total number of weighted terms in the profile,
// across categories and sub-categories.
func (p *Profile) TermCount() int {
	n := 0
	for _, cat := range p.Categories {
		n += len(cat.Terms)
		for _, sub := range cat.Subs {
			n += len(sub.Terms)
		}
	}
	return n
}
