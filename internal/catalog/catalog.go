// Package catalog models merchandise: products carrying the weighted
// characteristic terms the profile model learns from, indexed for the query
// service marketplaces expose. It also implements the Seller Server duty the
// paper assigns in §3.2(4) — "integrating and cataloging merchandise" — by
// normalizing two deliberately different seller feed formats into one
// catalog, exercising the heterogeneous-product-data drawback the paper's
// abstract motivates.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"agentrec/internal/profile"
)

// Errors reported by the package.
var (
	ErrNoID        = errors.New("catalog: product has no id")
	ErrNoCategory  = errors.New("catalog: product has no category")
	ErrBadPrice    = errors.New("catalog: negative price")
	ErrNotFound    = errors.New("catalog: product not found")
	ErrDuplicateID = errors.New("catalog: duplicate product id")
)

// Product is one piece of merchandise. Price is in cents (integer money per
// the style guide). Terms carry the w_ji weights the Fig 4.4 update rule
// consumes when a consumer interacts with this product.
type Product struct {
	ID          string             `json:"id"`
	Name        string             `json:"name"`
	Category    string             `json:"category"`
	SubCategory string             `json:"sub_category,omitempty"`
	Terms       map[string]float64 `json:"terms"`
	PriceCents  int64              `json:"price_cents"`
	SellerID    string             `json:"seller_id"`
	Stock       int                `json:"stock"`
}

// Validate reports whether the product is well-formed.
func (p *Product) Validate() error {
	if p.ID == "" {
		return ErrNoID
	}
	if p.Category == "" {
		return fmt.Errorf("%w: product %s", ErrNoCategory, p.ID)
	}
	if p.PriceCents < 0 {
		return fmt.Errorf("%w: product %s", ErrBadPrice, p.ID)
	}
	return nil
}

// Evidence converts an interaction with the product into the profile
// evidence the Profile Agent records.
func (p *Product) Evidence(b profile.Behaviour) profile.Evidence {
	terms := make(map[string]float64, len(p.Terms))
	for t, w := range p.Terms {
		terms[t] = w
	}
	ev := profile.Evidence{
		Category:  p.Category,
		Terms:     terms,
		Behaviour: b,
	}
	if p.SubCategory != "" {
		ev.SubCategory = p.SubCategory
		// The sub-category sees the same term evidence; Fig 4.4 keeps
		// separate weights per level.
		sub := make(map[string]float64, len(p.Terms))
		for t, w := range p.Terms {
			sub[t] = w
		}
		ev.SubTerms = sub
	}
	return ev
}

// clone returns a deep copy so catalog internals never alias caller data.
func (p *Product) clone() *Product {
	out := *p
	out.Terms = make(map[string]float64, len(p.Terms))
	for t, w := range p.Terms {
		out.Terms[t] = w
	}
	return &out
}

// Query describes a merchandise search, the shape the paper's marketplace
// "information query" service answers.
type Query struct {
	Category    string   `json:"category,omitempty"`     // required category match when non-empty
	SubCategory string   `json:"sub_category,omitempty"` // optional sub-category filter
	Terms       []string `json:"terms,omitempty"`        // desired characteristic terms
	MaxPrice    int64    `json:"max_price,omitempty"`    // cents; 0 means unbounded
	Limit       int      `json:"limit,omitempty"`        // max results; 0 means all
}

// Match is one query result with its relevance score: the sum of the
// product's weights for the queried terms (plus a small constant when the
// category matched but no terms were given, so category-only queries rank
// by price).
type Match struct {
	Product *Product
	Score   float64
}

// Catalog is a concurrency-safe product index.
type Catalog struct {
	mu       sync.RWMutex
	products map[string]*Product
	// view caches the content view. Add, Upsert and Remove clear it while
	// holding mu; AdjustStock leaves it alone, since stock is not content.
	view atomic.Pointer[View]
}

// Item is the content of one product: what recommendation scoring reads.
// Price, seller and stock are not part of it. Terms is shared with the
// catalog and must not be mutated.
type Item struct {
	ID          string
	Category    string
	SubCategory string
	Terms       map[string]float64
}

// View is an immutable listing of the catalog's content, grouped by
// category, for read paths that walk many products per request: taking one
// is an atomic load and copies no product. It shows the catalog as of the
// last Add, Upsert or Remove before View was called.
type View struct {
	items      []Item            // ordered by category, then id
	byCategory map[string][]Item // sub-slices of items
	byID       map[string]int    // index into items
}

// Items returns the products of category ordered by id, or every product
// when category is empty. The slice is shared and must not be mutated.
func (v *View) Items(category string) []Item {
	if category == "" {
		return v.items
	}
	return v.byCategory[category]
}

// Lookup returns the content of the product with id.
func (v *View) Lookup(id string) (Item, bool) {
	i, ok := v.byID[id]
	if !ok {
		return Item{}, false
	}
	return v.items[i], true
}

// View returns the current content view, rebuilding it only when the
// catalog's content changed since the last call.
func (c *Catalog) View() *View {
	if v := c.view.Load(); v != nil {
		return v
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.view.Load(); v != nil {
		return v
	}
	v := &View{
		items:      make([]Item, 0, len(c.products)),
		byCategory: make(map[string][]Item),
		byID:       make(map[string]int, len(c.products)),
	}
	// Stored products are replaced whole, never edited in place apart from
	// Stock, so the view can share their term maps.
	for _, p := range c.products {
		v.items = append(v.items, Item{ID: p.ID, Category: p.Category, SubCategory: p.SubCategory, Terms: p.Terms})
	}
	sort.Slice(v.items, func(i, j int) bool {
		a, b := &v.items[i], &v.items[j]
		if a.Category != b.Category {
			return a.Category < b.Category
		}
		return a.ID < b.ID
	})
	for lo := 0; lo < len(v.items); {
		hi := lo
		for hi < len(v.items) && v.items[hi].Category == v.items[lo].Category {
			v.byID[v.items[hi].ID] = hi
			hi++
		}
		v.byCategory[v.items[lo].Category] = v.items[lo:hi:hi]
		lo = hi
	}
	c.view.Store(v)
	return v
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{products: make(map[string]*Product)}
}

// Add inserts a product. Adding an existing id fails with ErrDuplicateID.
func (c *Catalog) Add(p *Product) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.products[p.ID]; ok {
		return fmt.Errorf("%w: %s", ErrDuplicateID, p.ID)
	}
	c.products[p.ID] = p.clone()
	c.view.Store(nil)
	return nil
}

// Upsert inserts or replaces a product.
func (c *Catalog) Upsert(p *Product) error {
	if err := p.Validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.products[p.ID] = p.clone()
	c.view.Store(nil)
	return nil
}

// Get returns a copy of the product with id.
func (c *Catalog) Get(id string) (*Product, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	p, ok := c.products[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return p.clone(), nil
}

// Remove deletes the product with id.
func (c *Catalog) Remove(id string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.products[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(c.products, id)
	c.view.Store(nil)
	return nil
}

// AdjustStock changes the stock of product id by delta (negative to sell),
// refusing to go below zero.
func (c *Catalog) AdjustStock(id string, delta int) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.products[id]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	if p.Stock+delta < 0 {
		return p.Stock, fmt.Errorf("catalog: insufficient stock for %s: have %d, want %d", id, p.Stock, -delta)
	}
	p.Stock += delta
	return p.Stock, nil
}

// Len reports the number of products.
func (c *Catalog) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.products)
}

// Categories returns the sorted distinct categories present.
func (c *Catalog) Categories() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[string]struct{})
	for _, p := range c.products {
		seen[p.Category] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for cat := range seen {
		out = append(out, cat)
	}
	sort.Strings(out)
	return out
}

// All returns copies of every product, ordered by id.
func (c *Catalog) All() []*Product {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Product, 0, len(c.products))
	for _, p := range c.products {
		out = append(out, p.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Search answers q: products matching the filters, scored by queried-term
// weight, ordered by score descending then price ascending then id. Out of
// stock products are excluded.
func (c *Catalog) Search(q Query) []Match {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]Match, 0, 16)
	for _, p := range c.products {
		if p.Stock <= 0 {
			continue
		}
		if q.Category != "" && p.Category != q.Category {
			continue
		}
		if q.SubCategory != "" && p.SubCategory != q.SubCategory {
			continue
		}
		if q.MaxPrice > 0 && p.PriceCents > q.MaxPrice {
			continue
		}
		score := 0.0
		for _, term := range q.Terms {
			score += p.Terms[term]
		}
		if len(q.Terms) > 0 && score == 0 {
			continue // asked for terms, matched none
		}
		out = append(out, Match{Product: p.clone(), Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		if out[i].Product.PriceCents != out[j].Product.PriceCents {
			return out[i].Product.PriceCents < out[j].Product.PriceCents
		}
		return out[i].Product.ID < out[j].Product.ID
	})
	if q.Limit > 0 && len(out) > q.Limit {
		out = out[:q.Limit]
	}
	return out
}

// NormalizeCategory canonicalizes a category string for cross-seller
// integration: lower-cased, trimmed, inner whitespace collapsed to one dash.
func NormalizeCategory(s string) string {
	fields := strings.Fields(strings.ToLower(strings.TrimSpace(s)))
	return strings.Join(fields, "-")
}
