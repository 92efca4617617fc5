package diskstore

import (
	"encoding/hex"
	"testing"

	"blob/internal/wire"
)

// The golden tests pin the persisted byte layouts of docs/diskstore-format.md
// (§2 records, §4 sidecars), checksums included. Data directories written
// by an earlier build must stay readable, so any diff here is an on-disk
// format change, not a refactor.

func TestPutRecordGoldenBytes(t *testing.T) {
	got := appendPutRecord(nil, 5, 7, 9, 3, []byte("supernova page"))
	const want = "2b000000" + // body length 43
		"ec42cb99c82043dc" + // FNV-1a of the body
		"01" + "0500000000000000" + "0700000000000000" + "0900000000000000" + "03000000" + // op seq blob write rel
		"73757065726e6f76612070616765" // page bytes
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("put record encoding moved:\n got %s\nwant %s", h, want)
	}
	if _, _, err := decodeRecord(got); err != nil {
		t.Errorf("golden record does not decode: %v", err)
	}
}

func TestSidecarGoldenBytes(t *testing.T) {
	sc := &sidecar{
		id:        4,
		dataSize:  4096,
		maxSeq:    77,
		puts:      []sidecarPut{{blob: 1, write: 2, rel: 3, seq: 10, off: 0, size: 100}},
		delPages:  []sidecarDelPages{{blob: 1, write: 9, rel: 0, seq: 12}},
		delWrites: []sidecarDelWrite{{blob: 2, write: 1, seq: 13}},
		bloom:     wire.NewBloom(1),
	}
	sc.bloom.Add(1, 2, 3)
	got := sc.encode()
	const want = "53494458" + "01000000" + // magic, version
		"0400000000000000" + "0010000000000000" + "4d00000000000000" + // id, data size, max seq
		"0100000000000000" + // one put: blob write rel seq off size
		"0100000000000000" + "0200000000000000" + "03000000" + "0a00000000000000" + "0000000000000000" + "6400000000000000" +
		"0100000000000000" + // one page tombstone: blob write rel seq
		"0100000000000000" + "0900000000000000" + "00000000" + "0c00000000000000" +
		"0100000000000000" + // one write tombstone: blob write seq
		"0200000000000000" + "0100000000000000" + "0d00000000000000" +
		"07000000" + "01000000" + "2004801002400800" + // bloom: k, words, bits
		"a023d3c6169f9732" // trailer: FNV-1a of everything before it
	if h := hex.EncodeToString(got); h != want {
		t.Errorf("sidecar encoding moved:\n got %s\nwant %s", h, want)
	}
	if _, err := decodeSidecar(got); err != nil {
		t.Errorf("golden sidecar does not decode: %v", err)
	}
}
