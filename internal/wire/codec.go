package wire

import (
	"encoding/binary"
	"fmt"
)

// envelopeMagic opens every payload.
const envelopeMagic = 0x00

// Version is the protocol version this build writes and the only one it
// reads. Version 0 is never valid.
const Version uint64 = 1

// Marshal encodes m as one payload: the envelope, then the message's fields.
// A nil m yields the bare envelope, the body of a method without arguments.
//
// payload is the value-content share of raw (ciphertext/key blobs, 8 per
// float scalar); the remainder is framing — envelope, field keys, length
// prefixes, ID lists. costmodel charges the two shares to BytesSent and
// FramingBytes respectively. Bytes and tally come out of one walk over m's
// field table.
func Marshal(m Message) (raw []byte, payload int64) {
	// Requests are mostly a few scalars: start with room for them.
	buf := append(make([]byte, 0, 32), envelopeMagic)
	f := Fields{e: encoder{buf: binary.AppendUvarint(buf, Version)}}
	if m != nil {
		m.Fields(&f)
	}
	return f.e.buf, f.e.payload
}

// Unmarshal checks the envelope of data and decodes the body into m. A nil m
// checks the envelope and discards the body. Anything that does not open with
// a well-formed envelope — an empty body, another encoding's bytes, version 0
// — is ErrCorrupt; a well-formed envelope of any version but Version is
// *UnsupportedVersionError, so a future-version payload fails loudly instead
// of being misparsed.
func Unmarshal(data []byte, m Message) error {
	if len(data) == 0 || data[0] != envelopeMagic {
		return fmt.Errorf("%w: missing envelope", ErrCorrupt)
	}
	ver, n, err := ConsumeUvarint(data[1:])
	if err != nil {
		return fmt.Errorf("%w: envelope version: %w", ErrCorrupt, err)
	}
	if ver == 0 {
		return fmt.Errorf("%w: envelope version 0", ErrCorrupt)
	}
	if ver != Version {
		return &UnsupportedVersionError{Version: ver, Max: Version}
	}
	if m == nil {
		return nil
	}
	f := Fields{mode: decoding, d: decoder{data: data[1+n:]}}
	if err := f.decode(m); err != nil {
		return fmt.Errorf("wire: decoding %T: %w", m, err)
	}
	return nil
}
