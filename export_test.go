package tinyevm

// The journal and checkpoint codecs, for the external test package: the
// format pins, the strict-replay cases and the fuzz seeds build and
// take apart binary records with them. And the stripe count, which the
// sharded-versus-serial differential sets to one.

type OpRecord = opRecord

func (rec *opRecord) Encode() []byte { return rec.encode(nil) }

func DecodeOpRecord(data []byte) (*OpRecord, error) { return decodeOpRecord(data) }

// WithShards sets the number of lock stripes for the pairwise hot path
// (DefaultShards when unset). n <= 1 collapses the service to a single
// stripe — every operation serializes, the pre-sharding behavior.
func WithShards(n int) Option {
	return func(c *serviceConfig) { c.shards = n }
}
