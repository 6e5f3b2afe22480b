package ckpt

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// validRecord checks data against the documented record layout,
// independently of the reader: a 64-byte header (magic, version,
// reserved, job key, sequence, payload length), the payload, and the
// SHA-256 of everything before it. It returns the payload when the
// record is a valid generation seq of job key.
func validRecord(data []byte, key [32]byte, seq uint64) ([]byte, bool) {
	n := len(data) - 64 - 32
	if n < 0 || string(data[:8]) != "RLCKPT01" || binary.LittleEndian.Uint32(data[8:12]) != 1 ||
		!bytes.Equal(data[16:48], key[:]) || binary.LittleEndian.Uint64(data[48:56]) != seq ||
		binary.LittleEndian.Uint64(data[56:64]) != uint64(n) {
		return nil, false
	}
	sum := sha256.Sum256(data[:64+n])
	return data[64 : 64+n], bytes.Equal(sum[:], data[64+n:])
}

// FuzzCkptLatest writes arbitrary bytes as a store's only generation,
// ckpt-1.ck. Latest never panics, and returns a payload exactly when
// the magic, version, job key, sequence and checksum hold.
func FuzzCkptLatest(f *testing.F) {
	key := testKey(1)
	valid := (&Store{key: key}).encode(1, []byte("walker state"))
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add((&Store{key: testKey(2)}).encode(1, []byte("walker state")))
	f.Add((&Store{key: key}).encode(2, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Open(t.TempDir(), key)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(s.Dir(), "ckpt-1.ck"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		payload, seq, err := s.Latest(context.Background())
		want, ok := validRecord(data, key, 1)
		switch {
		case err != nil && !errors.Is(err, ErrNoCheckpoint):
			t.Fatalf("Latest: %v, want ErrNoCheckpoint", err)
		case err != nil && ok:
			t.Fatalf("Latest refused a valid record %x", data)
		case err == nil && !ok:
			t.Fatalf("Latest accepted an invalid record %x", data)
		case err == nil && (seq != 1 || !bytes.Equal(payload, want)):
			t.Fatalf("Latest returned seq %d payload %x from record %x", seq, payload, data)
		}
	})
}
