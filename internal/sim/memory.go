package sim

import (
	"fmt"

	"queuemachine/internal/isa"
)

// replicatedMemory implements pe.MemoryBus for the multiprocessor: the
// static data segment is replicated in every processing element's local
// memory under the multiple-readers/single-writer array discipline of §4.6.
// Reads are therefore always local; a write updates every replica, which
// costs one bus broadcast. Because the replicas are always identical, a
// single backing array represents them all.
type replicatedMemory struct {
	words      []int32
	storeExtra int64
	// reads and writes count data-memory traffic for the statistics
	// tables.
	reads, writes int64
}

func newReplicatedMemory(words int, storeExtra int64) *replicatedMemory {
	return &replicatedMemory{words: make([]int32, words), storeExtra: storeExtra}
}

func (m *replicatedMemory) load(obj *isa.Object) {
	for addr, v := range obj.DataInit {
		if addr >= 0 && addr < len(m.words) {
			m.words[addr] = v
		}
	}
}

func (m *replicatedMemory) wordIndex(byteAddr int32, aligned bool) (int, error) {
	if byteAddr < 0 {
		return 0, fmt.Errorf("sim: negative address %d", byteAddr)
	}
	if aligned && byteAddr%isa.WordSize != 0 {
		return 0, fmt.Errorf("sim: unaligned word address %d", byteAddr)
	}
	idx := int(byteAddr) / isa.WordSize
	if idx >= len(m.words) {
		return 0, fmt.Errorf("sim: address %d beyond data segment of %d words", byteAddr, len(m.words))
	}
	return idx, nil
}

func (m *replicatedMemory) FetchWord(peID int, byteAddr int32) (int32, int, error) {
	idx, err := m.wordIndex(byteAddr, true)
	if err != nil {
		return 0, 0, err
	}
	m.reads++
	return m.words[idx], 0, nil
}

func (m *replicatedMemory) StoreWord(peID int, byteAddr, val int32) (int, error) {
	idx, err := m.wordIndex(byteAddr, true)
	if err != nil {
		return 0, err
	}
	m.writes++
	m.words[idx] = val
	return int(m.storeExtra), nil
}

func (m *replicatedMemory) FetchByte(peID int, byteAddr int32) (int32, int, error) {
	idx, err := m.wordIndex(byteAddr, false)
	if err != nil {
		return 0, 0, err
	}
	m.reads++
	shift := uint(byteAddr%isa.WordSize) * 8
	return int32(uint32(m.words[idx]) >> shift & 0xff), 0, nil
}

func (m *replicatedMemory) StoreByte(peID int, byteAddr, val int32) (int, error) {
	idx, err := m.wordIndex(byteAddr, false)
	if err != nil {
		return 0, err
	}
	m.writes++
	shift := uint(byteAddr%isa.WordSize) * 8
	mask := uint32(0xff) << shift
	m.words[idx] = int32(uint32(m.words[idx])&^mask | uint32(val&0xff)<<shift)
	return int(m.storeExtra), nil
}
