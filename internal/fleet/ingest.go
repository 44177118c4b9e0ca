package fleet

// ingest.go is the binary side of /v1/upload: per-device dictionary state
// for the core binary wire format (see internal/core/binwire.go). A device
// sends each class/method string once; the server must therefore remember
// the dictionary the device's encoder has built so the next delta document
// resolves. That state is bounded: an LRU over devices, capped by
// DictDevices, evicting the decoder (and with it the dictionary) of the
// device that has been silent longest. An evicted device's next delta
// upload fails the dictBase check and is bounced with 409; the client
// resets its encoder and resends a full dictionary — eviction costs one
// round trip and some bytes, never correctness.

import (
	"container/list"
	"sync"

	"hangdoctor/internal/core"
	"hangdoctor/internal/obs"
)

// DefaultDictDevices bounds the per-device dictionary cache: the server
// holds binary-decoder state for at most this many distinct devices.
const DefaultDictDevices = 65536

// dictEntry is one device's decoder. The entry mutex serializes decoding
// for that device (dictionary deltas are ordered per device by protocol);
// different devices decode concurrently.
type dictEntry struct {
	device string
	mu     sync.Mutex
	dec    *core.BinaryDecoder
}

// dictCache is the bounded device→decoder map. The cache mutex guards only
// the map and LRU list — decoding happens outside it, under the entry
// mutex, so one slow decode never stalls other devices.
type dictCache struct {
	mu    sync.Mutex
	cap   int
	lru   *list.List // front = most recently used; values are *dictEntry
	byDev map[string]*list.Element

	evictions *obs.Counter
}

func newDictCache(capacity int, reg *obs.Registry) *dictCache {
	if capacity <= 0 {
		capacity = DefaultDictDevices
	}
	c := &dictCache{
		cap:   capacity,
		lru:   list.New(),
		byDev: make(map[string]*list.Element),
		evictions: reg.Counter("hangdoctor_fleet_dict_evictions_total",
			"Device dictionaries evicted from the bounded cache (the device resyncs via 409)."),
	}
	reg.GaugeFunc("hangdoctor_fleet_dict_devices",
		"Devices with live dictionary state in the cache.",
		func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.byDev))
		})
	return c
}

// entry returns (creating if needed) the decoder entry of the device
// named by the bytes device, bumping it to most-recently-used and evicting
// the coldest entry when over capacity. Finding a known device allocates
// nothing; only a new device's entry copies its name.
func (c *dictCache) entry(device []byte) *dictEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byDev[string(device)]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*dictEntry)
	}
	e := &dictEntry{device: string(device), dec: core.NewBinaryDecoder()}
	c.byDev[e.device] = c.lru.PushFront(e)
	for len(c.byDev) > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.byDev, oldest.Value.(*dictEntry).device)
		c.evictions.Inc()
	}
	return e
}

// decode parses one binary upload document against the sending device's
// dictionary into the caller's view; a known device's document decoded
// into a warm view allocates nothing. Stateless documents (empty device)
// decode with a throwaway decoder and touch no cache state. A decode error
// never commits dictionary changes (the core decoder stages deltas), so a
// rejected document leaves the device's state exactly as it was.
func (c *dictCache) decode(doc []byte, into *core.WireReport) error {
	device, err := core.PeekBinaryDevice(doc)
	if err != nil {
		return err
	}
	if len(device) == 0 {
		return core.NewBinaryDecoder().Decode(doc, into)
	}
	e := c.entry(device)
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dec.Decode(doc, into)
}
