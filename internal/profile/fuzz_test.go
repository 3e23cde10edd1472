package profile

import (
	"bytes"
	"testing"
	"time"
)

// FuzzProfileUnmarshal feeds Unmarshal the bytes a peer's forwarded write,
// a journal record or a snapshot page carries. Unmarshal must never panic.
// A profile it accepts must re-marshal to a fixed point after one round,
// and must be usable: Summary (what the engine builds on install) and
// Observe (what the Profile Agent applies next) must not panic on it.
func FuzzProfileUnmarshal(f *testing.F) {
	p := NewProfile("alice")
	p.Observe(Evidence{Category: "laptop", Terms: map[string]float64{"ssd": 2, "ram": 1},
		SubCategory: "gaming", SubTerms: map[string]float64{"gpu": 3}, Behaviour: BehaviourBuy,
		At: time.Date(2004, 3, 23, 12, 0, 0, 0, time.UTC)})
	valid, err := p.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"user_id":"u","alpha":0.5,"categories":{"c":{"name":"c","terms":{"t":1e308}}}}`))
	f.Add([]byte(`{"categories":{"c":{"terms":{"t":1},"subs":{"s":{"terms":{}}}}}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Unmarshal(data)
		if err != nil {
			return
		}
		p.Summary()
		once, err := p.Marshal()
		if err != nil {
			return // a value JSON cannot carry back out is refused, not a crash
		}
		q, err := Unmarshal(once)
		if err != nil {
			t.Fatalf("re-marshalled profile refused: %v\n%s", err, once)
		}
		twice, err := q.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("no fixed point after one round:\n%s\n%s", once, twice)
		}
		q.Summary()
		if err := q.Observe(Evidence{Category: "c", Terms: map[string]float64{"t": 1},
			SubCategory: "s", SubTerms: map[string]float64{"u": 1}}); err != nil {
			t.Fatal(err)
		}
	})
}
