package tinyevm

// The journal and checkpoint codecs, for the external test package: the
// format pins, the strict-replay cases and the fuzz seeds build and
// take apart binary records with them.

type (
	OpRecord  = opRecord
	OpStep    = opStep
	OpReading = opReading
)

func (rec *opRecord) Encode() []byte { return rec.encode(nil) }

func DecodeOpRecord(data []byte) (*OpRecord, error) { return decodeOpRecord(data) }
