package main

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// The host's per-core speed steps and drifts by up to a third within
// minutes (other machines on the same cores; see README.md, "Clocks"), and
// that moves every timing, CPU clock included. The run therefore also
// times a fixed reference kernel: standard-library work shaped like the
// pipeline's (XML tokenizing, string maps, sorting, JSON encoding) that
// shares no code with the repository, so a change to the program cannot
// move it. The end-to-end timings are scaled by refNominal ÷ the run's
// median kernel time: they read as on a host where the kernel takes
// refNominal. Across ten runs the kernel's time correlated 0.90–0.97 with
// the workload's CPU per document, set-up, p50 and reload times.

const (
	// refNominal is the kernel time the scaled timings are expressed at.
	refNominal = time.Millisecond
	// refChunks is how many chunks of sweepChunk kernel runs a run times.
	refChunks = 60
)

// refDoc is the kernel's fixed input: about 30 KB of XML built from a fixed
// seed, independent of --seed.
var refDoc = func() []byte {
	rng := rand.New(rand.NewSource(1))
	words := make([]string, 400)
	for i := range words {
		var sb strings.Builder
		for j := 0; j < 3+rng.Intn(6); j++ {
			sb.WriteByte(byte('a' + rng.Intn(26)))
		}
		words[i] = sb.String()
	}
	word := func() string { return words[rng.Intn(len(words))] }
	var buf bytes.Buffer
	buf.WriteString("<root>")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&buf, `<item id="%d" kind="%s"><name>%s %s</name><text>`, i, word(), word(), word())
		for j := 0; j < 12; j++ {
			buf.WriteString(word())
			buf.WriteByte(' ')
		}
		buf.WriteString("</text></item>")
	}
	buf.WriteString("</root>")
	return buf.Bytes()
}()

// refSink keeps the kernel's result live.
var refSink int

// refKernel tokenizes refDoc, counts its names and words in a map, sorts
// the distinct words and encodes them as JSON.
func refKernel() {
	dec := xml.NewDecoder(bytes.NewReader(refDoc))
	counts := map[string]int{}
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch t := tok.(type) {
		case xml.StartElement:
			counts[t.Name.Local]++
			for _, a := range t.Attr {
				counts[a.Value]++
			}
		case xml.CharData:
			for _, w := range strings.Fields(string(t)) {
				counts[strings.ToLower(w)]++
			}
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	b, err := json.Marshal(words)
	if err == nil {
		refSink += len(b)
	}
}

// refChunk times sweepChunk kernel runs quiesced, like a latency chunk.
func refChunk(acc *phase) {
	timedChunks(sweepChunk, func(int) {
		c0 := cpuTime()
		refKernel()
		acc.refs = append(acc.refs, cpuTime()-c0)
	})
}

// hostScale is refNominal ÷ the median kernel time of the run: multiply a
// time by it, divide a rate by it. 1 when the kernel was not timed.
func hostScale(refs []time.Duration) float64 {
	m := median(refs)
	if m <= 0 {
		return 1
	}
	return float64(refNominal) / float64(m)
}
