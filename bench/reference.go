package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"
)

// The reference task is a fixed piece of work that uses none of the
// program's code: decode a JSON document into generic maps, index the
// rows by ID, and sort the IDs. It runs on every core after every round
// of ops, so that it meets the same machine — the same contention for
// memory bandwidth and cores from whatever else the host runs — as the
// ops around it. On a shared host that contention moves every timing by
// tens of percent within minutes, but it moves an op and the reference
// runs beside it alike, so their ratio stays put. The *_ref metrics are
// those ratios: an op's latency in units of the reference task's time at
// the same moment.
var referenceDoc = func() []byte {
	type row struct {
		ID   string   `json:"id"`
		N    int      `json:"n"`
		W    float64  `json:"w"`
		Tags []string `json:"tags"`
	}
	rows := make([]row, 600)
	for i := range rows {
		rows[i] = row{
			ID:   fmt.Sprintf("row%05d", i*7919%len(rows)),
			N:    i,
			W:    float64(i) / 7,
			Tags: []string{fmt.Sprintf("a%d", i%13), fmt.Sprintf("b%d", i%7)},
		}
	}
	doc, err := json.Marshal(rows)
	if err != nil {
		panic(err)
	}
	return doc
}()

// referenceOnce runs the reference task once.
func referenceOnce() {
	var rows []map[string]any
	if err := json.Unmarshal(referenceDoc, &rows); err != nil {
		panic(err) // referenceDoc is generated above; it always decodes
	}
	index := make(map[string]int, len(rows))
	ids := make([]string, 0, len(rows))
	for i, r := range rows {
		id, _ := r["id"].(string)
		index[id] = i
		ids = append(ids, id)
	}
	sort.Strings(ids)
}

// reference runs the reference task on workers goroutines at once and
// returns the wall time until all have finished.
func reference(workers int) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			referenceOnce()
		}()
	}
	wg.Wait()
	return time.Since(start)
}
