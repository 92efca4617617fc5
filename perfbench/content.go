package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Page content is a seeded function of (page, tag), where the tag names
// the write: the preload writes tag 0 and ingest writes ingestTag. Two
// different tags, pages or seeds give unrelated byte streams, so a page
// from another write reads as wrong bytes rather than as a near miss.

const ingestTag = 1

const goldenGamma = 0x9E3779B97F4A7C15

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// fillPage writes the content of page at tag into dst (a whole page).
func fillPage(dst []byte, seed int64, page, tag uint64) {
	x := mix64(mix64(uint64(seed)^goldenGamma) ^ mix64(page+1) ^ mix64(tag*goldenGamma+0x632BE59BD9B4E019))
	for i := 0; i+8 <= len(dst); i += 8 {
		x += goldenGamma
		binary.LittleEndian.PutUint64(dst[i:], mix64(x))
	}
}

// fillPages fills buf, which starts at firstPage, with the content every
// page holds at tag.
func fillPages(buf []byte, seed int64, firstPage, tag uint64) {
	for i := 0; i < len(buf)/pageSize; i++ {
		fillPage(buf[i*pageSize:(i+1)*pageSize], seed, firstPage+uint64(i), tag)
	}
}

// verifyPages checks buf, read from firstPage, against the content
// tagOf says each page holds. scratch must hold one page.
func verifyPages(buf, scratch []byte, seed int64, firstPage uint64, tagOf func(page uint64) (uint64, error)) error {
	for i := 0; i < len(buf)/pageSize; i++ {
		page := firstPage + uint64(i)
		tag, err := tagOf(page)
		if err != nil {
			return err
		}
		fillPage(scratch, seed, page, tag)
		if got := buf[i*pageSize : (i+1)*pageSize]; !bytes.Equal(got, scratch) {
			return fmt.Errorf("page %d: bytes differ from write tag %d at offset %d", page, tag, firstDiff(got, scratch))
		}
	}
	return nil
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
