package recommend

import (
	"errors"
	"fmt"
	"unicode/utf8"

	"agentrec/internal/profile"
)

// Observe applies evs, in order, to userID's stored profile by the Fig 4.4
// update rule (profile.Profile.Observe), starting from an empty
// profile.NewProfile when the engine holds none, and records sales,
// purchases by consumers of userID's shard, in the same shard write: both
// land or neither does. This is the Profile Agent's update, made where the
// one stored profile lives: a write to the consumer between the read and
// the install sends the update round again on the new record, so no write
// is lost. With no evidence no profile is written. An id or key that
// SetProfile or RecordPurchase would refuse is refused with ErrBadKey, a
// sale in another shard with ErrShardMismatch, and a bad event
// (profile.ErrBadEvidence, profile.ErrNoCategory) refuses the whole call;
// either way nothing is written. Like SetProfile it is the owner's local
// write. The write keeps sales without a copy, as its journal batch and its
// feed record, so the caller must not change them once Observe is called.
func (e *Engine) Observe(userID string, evs []profile.Evidence, sales []PurchasePair) error {
	return e.observe(userID, evs, sales, (*OwnershipTable).admitOwner)
}

// errRecordMoved is observe's signal that the record it read was replaced
// before its install could take the shard lock.
var errRecordMoved = errors.New("recommend: consumer record replaced during observe")

func (e *Engine) observe(userID string, evs []profile.Evidence, sales []PurchasePair, admit admitFunc) error {
	if !validID(userID) {
		return fmt.Errorf("%w: user %q", ErrBadKey, userID)
	}
	for _, ev := range evs {
		if !validEvidenceKeys(ev) {
			return fmt.Errorf("%w: a key of user %q's evidence", ErrBadKey, userID)
		}
	}
	sh := e.shardFor(userID)
	if len(evs) == 0 {
		if len(sales) == 0 {
			return nil
		}
		return e.installShardProfiles(sh, nil, nil, sales, admit)
	}
	for {
		sh.mu.RLock()
		read := sh.consumers[userID]
		sh.mu.RUnlock()
		// The copy and the update run outside the lock, as SetProfile's
		// copy does; records are immutable, so read is safe to copy.
		p := profile.NewProfile(userID)
		if read != nil && read.prof != nil {
			p = read.prof.Clone()
		}
		for _, ev := range evs {
			if err := p.Observe(ev); err != nil {
				return fmt.Errorf("recommend: %w", err)
			}
		}
		err := e.installShardProfiles(sh, []*profile.Profile{p}, nil, sales, func(t *OwnershipTable, shard, self int) error {
			if err := admit(t, shard, self); err != nil {
				return err
			}
			if sh.consumers[userID] != read {
				return errRecordMoved
			}
			return nil
		})
		if !errors.Is(err, errRecordMoved) {
			return err
		}
	}
}

// validEvidenceKeys reports whether ev's category, sub-category and term
// keys are valid UTF-8: a profile journals its keys as they are only then.
func validEvidenceKeys(ev profile.Evidence) bool {
	if !utf8.ValidString(ev.Category) || !utf8.ValidString(ev.SubCategory) {
		return false
	}
	for _, terms := range []map[string]float64{ev.Terms, ev.SubTerms} {
		for t := range terms {
			if !utf8.ValidString(t) {
				return false
			}
		}
	}
	return true
}
