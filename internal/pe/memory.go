package pe

import (
	"fmt"

	"queuemachine/internal/isa"
)

// Memory is the static data segment. It is replicated in every processing
// element's local memory under the multiple-readers/single-writer array
// discipline of §4.6, so a read is always local and a write updates every
// replica, which costs storeCost cycles beyond the base memory cycle (one
// bus broadcast in the multiprocessor). Because the replicas are always
// identical, one backing array represents them all. Words are stored
// little-endian with respect to byte accesses.
type Memory struct {
	words     []int32
	storeCost int
	// Reads and Writes count data-memory traffic for the statistics
	// tables.
	Reads, Writes int64
}

// NewMemory allocates a data segment of the given size in words, holding
// the initial values in init (keyed by word index, as isa.Object.DataInit),
// whose stores each cost storeCost extra cycles.
func NewMemory(words int, init map[int]int32, storeCost int) *Memory {
	m := &Memory{words: make([]int32, words), storeCost: storeCost}
	for addr, v := range init {
		if addr >= 0 && addr < words {
			m.words[addr] = v
		}
	}
	return m
}

// Words exposes the backing store for result verification.
func (m *Memory) Words() []int32 { return m.words }

func (m *Memory) wordIndex(byteAddr int32, aligned bool) (int, error) {
	if byteAddr < 0 {
		return 0, fmt.Errorf("negative address %d", byteAddr)
	}
	if aligned && byteAddr%isa.WordSize != 0 {
		return 0, fmt.Errorf("unaligned word address %d", byteAddr)
	}
	idx := int(byteAddr) / isa.WordSize
	if idx >= len(m.words) {
		return 0, fmt.Errorf("address %d beyond data segment of %d words", byteAddr, len(m.words))
	}
	return idx, nil
}

// FetchWord reads the aligned word at byteAddr.
func (m *Memory) FetchWord(byteAddr int32) (int32, error) {
	idx, err := m.wordIndex(byteAddr, true)
	if err != nil {
		return 0, err
	}
	m.Reads++
	return m.words[idx], nil
}

// StoreWord writes the aligned word at byteAddr and returns the store's
// extra cycles.
func (m *Memory) StoreWord(byteAddr, val int32) (int, error) {
	idx, err := m.wordIndex(byteAddr, true)
	if err != nil {
		return 0, err
	}
	m.Writes++
	m.words[idx] = val
	return m.storeCost, nil
}

// FetchByte reads the byte at byteAddr, unsigned and right-justified
// without sign extension (§5.3.1).
func (m *Memory) FetchByte(byteAddr int32) (int32, error) {
	idx, err := m.wordIndex(byteAddr, false)
	if err != nil {
		return 0, err
	}
	m.Reads++
	shift := uint(byteAddr%isa.WordSize) * 8
	return int32(uint32(m.words[idx]) >> shift & 0xff), nil
}

// StoreByte writes the low byte of val at byteAddr and returns the
// store's extra cycles.
func (m *Memory) StoreByte(byteAddr, val int32) (int, error) {
	idx, err := m.wordIndex(byteAddr, false)
	if err != nil {
		return 0, err
	}
	m.Writes++
	shift := uint(byteAddr%isa.WordSize) * 8
	mask := uint32(0xff) << shift
	m.words[idx] = int32(uint32(m.words[idx])&^mask | uint32(val&0xff)<<shift)
	return m.storeCost, nil
}
