package wire

import "fmt"

// Chunk framing splits a ciphertext blob list into length-prefixed chunks so
// a response's packed vector can enter decryption chunk by chunk instead of
// behind a whole-payload barrier (the key holder pipelines parse/decrypt per
// chunk, see internal/he.DecryptPackedChunks). On the wire a chunked vector
// is one length-delimited field:
//
//	chunk list = uvarint chunk count | blob list*
//
// with each chunk a standard blob list (uvarint count | (uvarint len |
// bytes)*). The field rides its own tag on the v1 format, so a v1 peer that
// predates it keeps whole-blob framing untouched — unknown tags are skipped
// by contract.

// ChunkCiphers splits blobs into chunks of roughly chunkBytes content each.
// Blobs are never split — a chunk grows past chunkBytes rather than straddle
// a blob across a boundary — and every chunk carries at least one blob. The
// returned chunks alias blobs. chunkBytes <= 0 or an empty list yields nil,
// the whole-blob framing.
func ChunkCiphers(blobs [][]byte, chunkBytes int) [][][]byte {
	if chunkBytes <= 0 || len(blobs) == 0 {
		return nil
	}
	var chunks [][][]byte
	start, size := 0, 0
	for i, b := range blobs {
		if i > start && size+len(b) > chunkBytes {
			chunks = append(chunks, blobs[start:i:i])
			start, size = i, 0
		}
		size += len(b)
	}
	return append(chunks, blobs[start:])
}

// FlattenChunks reassembles a chunk-framed vector into the flat blob list.
// An empty chunk is framing corruption — senders never produce one — and is
// rejected with the typed error instead of silently vanishing from the
// reassembled vector.
func FlattenChunks(chunks [][][]byte) ([][]byte, error) {
	total := 0
	for i, c := range chunks {
		if len(c) == 0 {
			return nil, fmt.Errorf("%w: empty chunk %d in chunk-framed vector", ErrCorrupt, i)
		}
		total += len(c)
	}
	out := make([][]byte, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out, nil
}

// AppendChunks appends a chunk-framed blob list: uvarint chunk count, then
// each chunk as a blob list (AppendBlobs).
func AppendChunks(dst []byte, chunks [][][]byte) []byte {
	dst = AppendUvarint(dst, uint64(len(chunks)))
	for _, c := range chunks {
		dst = AppendBlobs(dst, c)
	}
	return dst
}

// ConsumeChunks reads a chunk-framed blob list from the front of data,
// returning the chunks (aliasing data) and the number of bytes consumed.
func ConsumeChunks(data []byte) ([][][]byte, int, error) {
	count, n, err := ConsumeUvarint(data)
	if err != nil {
		return nil, 0, err
	}
	// Each chunk takes at least one byte (its blob count), so a chunk count
	// beyond the remaining bytes is corruption — reject before allocating.
	if count > uint64(len(data)-n) {
		return nil, 0, fmt.Errorf("%w: chunk count %d exceeds %d remaining bytes", ErrCorrupt, count, len(data)-n)
	}
	if count == 0 {
		return nil, n, nil
	}
	chunks := make([][][]byte, count)
	for i := range chunks {
		blobs, bn, err := ConsumeBlobs(data[n:])
		if err != nil {
			return nil, 0, err
		}
		n += bn
		chunks[i] = blobs
	}
	return chunks, n, nil
}

// Chunks encodes a chunk-framed ciphertext vector; empty is omitted. Blob
// content counts as payload; chunk and blob prefixes are framing, exactly as
// the unchunked Blobs field the chunks replace.
func (e *Encoder) Chunks(tag int, chunks [][][]byte) {
	if len(chunks) == 0 {
		return
	}
	body, content := uvarintLen(uint64(len(chunks))), 0
	for _, c := range chunks {
		size, n := sizeBlobs(c)
		body += size
		content += n
	}
	e.vector(tag, body)
	e.buf = AppendChunks(e.buf, chunks)
	e.payload += int64(content)
}

// Chunks reads the current field as a chunk-framed blob list.
func (d *Decoder) Chunks() [][][]byte {
	if !d.want(wtBytes) {
		return nil
	}
	chunks, n, err := ConsumeChunks(d.b)
	if err != nil {
		d.fail(err)
		return nil
	}
	if n != len(d.b) {
		d.fail(fmt.Errorf("%w: %d trailing bytes after chunk list", ErrCorrupt, len(d.b)-n))
		return nil
	}
	return chunks
}
