package recommend

import (
	"fmt"

	"agentrec/internal/profile"
)

// The profile codec: a profile write is encoded once, at its origin, and its
// sinks on every server keep those bytes (WAL, journal feed, followers').

// encodeProfiles encodes the profiles of one write, in order.
func encodeProfiles(profs []*profile.Profile) ([][]byte, error) {
	out := make([][]byte, len(profs))
	for i, p := range profs {
		enc, err := p.Marshal()
		if err != nil {
			return nil, fmt.Errorf("recommend: encoding profile %s: %w", p.UserID, err)
		}
		out[i] = enc
	}
	return out, nil
}

// decodeProfiles decodes encs, in order, as profiles filed under shard of
// shards (0: unchecked, as a forwarded write is routed by what it decodes
// to), refusing a consumer that hashes to another with ErrShardMismatch and
// a user id no journal can key with ErrBadKey.
func decodeProfiles(encs [][]byte, shard, shards int) ([]*profile.Profile, error) {
	out := make([]*profile.Profile, len(encs))
	for i, enc := range encs {
		p, err := profile.Unmarshal(enc)
		if err != nil {
			return nil, fmt.Errorf("recommend: decoding profile: %w", err)
		}
		if !validID(p.UserID) {
			return nil, fmt.Errorf("%w: user %q", ErrBadKey, p.UserID)
		}
		if shards > 0 && shardOf(p.UserID, shards) != shard {
			return nil, fmt.Errorf("%w: user %s in shard %d", ErrShardMismatch, p.UserID, shard)
		}
		out[i] = p
	}
	return out, nil
}
