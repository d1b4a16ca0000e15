package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/cold-diffusion/cold/internal/serve"
)

// ptr returns a pointer to a copy of v: the optional fields of a score item.
func ptr(v int) *int { return &v }

// remoteQuery is one parsed stdin line headed for the batch endpoint:
// the wire item plus what the local printer needs to format its answer.
type remoteQuery struct {
	line int
	kind string
	a, b int // retweet: publisher,candidate; link: from,to; time/topics: user,-
	post int
	item serve.ScoreItem
}

// runRemote scores stdin queries against a running coldserve or
// coldrouter: lines are parsed and validated locally (a bad line is
// reported with its line number and skipped, exactly like local mode),
// then shipped in chunks — one POST /v1/score/batch round-trip per
// chunkSize queries instead of one per query. Per-item server errors
// skip their own line only; transport failures abort the job. Post
// indices resolve on the server, so timestamp answers print without the
// dataset's actual slice.
func runRemote(base string, chunkSize int) {
	if chunkSize <= 0 {
		chunkSize = 32
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)

	lineNo, handled, skipped := 0, 0, 0
	firstBad := []int{}
	skip := func(line int, err error) {
		skipped++
		if len(firstBad) < 5 {
			firstBad = append(firstBad, line)
		}
		log.Printf("line %d: skipped: %v", line, err)
	}

	var batch []remoteQuery
	flush := func() {
		if len(batch) == 0 {
			return
		}
		results := scoreChunk(client, base, batch)
		for i := range batch {
			if err := printRemote(out, &batch[i], &results[i]); err != nil {
				skip(batch[i].line, err)
			} else {
				handled++
			}
		}
		batch = batch[:0]
	}

	for scanner.Scan() {
		lineNo++
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			continue
		}
		q, err := parseRemote(fields)
		if err != nil {
			skip(lineNo, err)
			continue
		}
		q.line = lineNo
		batch = append(batch, q)
		if len(batch) >= chunkSize {
			flush()
		}
	}
	flush()
	if err := scanner.Err(); err != nil {
		log.Fatalf("reading queries: %v", err)
	}
	if skipped > 0 {
		log.Printf("summary: %d queries answered, %d lines skipped (first at lines %v)",
			handled, skipped, firstBad)
	}
	out.Flush()
	if handled == 0 && skipped > 0 {
		os.Exit(1)
	}
}

// parseRemote validates one query line into its batch wire item. Field
// counts and integer syntax are checked here; index ranges are the
// server's to judge (it owns the model and dataset).
func parseRemote(fields []string) (remoteQuery, error) {
	q := remoteQuery{kind: fields[0]}
	want := map[string]int{"retweet": 4, "link": 3, "time": 3, "topics": 3}
	n, ok := want[q.kind]
	if !ok {
		return q, fmt.Errorf("unknown query %q (want retweet, link, time or topics)", q.kind)
	}
	if len(fields) != n {
		return q, fmt.Errorf("%s query has %d fields, want %d", q.kind, len(fields), n)
	}
	arg := func(i int) (int, error) {
		v, err := strconv.Atoi(fields[i])
		if err != nil {
			return 0, fmt.Errorf("argument %d %q: not an integer", i, fields[i])
		}
		if v < 0 {
			return 0, fmt.Errorf("argument %d is negative", i)
		}
		return v, nil
	}
	var err error
	switch q.kind {
	case "retweet":
		if q.a, err = arg(1); err != nil {
			return q, err
		}
		if q.b, err = arg(2); err != nil {
			return q, err
		}
		if q.post, err = arg(3); err != nil {
			return q, err
		}
		q.item = serve.ScoreItem{Routing: serve.Routing{Kind: serve.KindRetweet, Candidate: ptr(q.b)},
			Publisher: ptr(q.a), Post: ptr(q.post)}
	case "link":
		if q.a, err = arg(1); err != nil {
			return q, err
		}
		if q.b, err = arg(2); err != nil {
			return q, err
		}
		q.item = serve.ScoreItem{Routing: serve.Routing{Kind: serve.KindLink, From: ptr(q.a)}, To: ptr(q.b)}
	default: // time, topics
		if q.a, err = arg(1); err != nil {
			return q, err
		}
		if q.post, err = arg(2); err != nil {
			return q, err
		}
		q.item = serve.ScoreItem{Routing: serve.Routing{Kind: serve.Kind(q.kind), User: ptr(q.a)}, Post: ptr(q.post)}
		if q.kind == "topics" {
			q.item.TopN = 3
		}
	}
	return q, nil
}

// scoreChunk ships one chunk through the batch endpoint. A transport or
// envelope failure is a job failure (the whole chunk is gone, not one
// line), so it aborts like an unreadable stdin would.
func scoreChunk(client *http.Client, base string, batch []remoteQuery) []serve.ItemResult {
	items := make([]serve.ScoreItem, len(batch))
	for i := range batch {
		items[i] = batch[i].item
	}
	body, err := json.Marshal(map[string]any{"items": items})
	if err != nil {
		log.Fatalf("encode batch: %v", err)
	}
	resp, err := client.Post(base+"/v1/score/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatalf("batch request: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("batch response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("batch request: server answered %s: %s", resp.Status, strings.TrimSpace(string(raw)))
	}
	var rep struct {
		Results []serve.ItemResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		log.Fatalf("decode batch response: %v", err)
	}
	if len(rep.Results) != len(batch) {
		log.Fatalf("server answered %d results for %d items", len(rep.Results), len(batch))
	}
	return rep.Results
}

// printRemote renders one answered item in the local-mode output shape.
func printRemote(out *bufio.Writer, q *remoteQuery, res *serve.ItemResult) error {
	if res.Status != "ok" {
		if res.Error != nil {
			return fmt.Errorf("server: %s: %s", res.Error.Code, res.Error.Message)
		}
		return fmt.Errorf("server: item failed with no error detail")
	}
	switch q.kind {
	case "retweet":
		if res.Score == nil {
			return fmt.Errorf("server: retweet answer missing score")
		}
		fmt.Fprintf(out, "retweet %d->%d post %d: %.6f\n", q.a, q.b, q.post, *res.Score)
	case "link":
		if res.Score == nil {
			return fmt.Errorf("server: link answer missing score")
		}
		fmt.Fprintf(out, "link %d->%d: %.6f\n", q.a, q.b, *res.Score)
	case "time":
		if res.Slice == nil {
			return fmt.Errorf("server: time answer missing slice")
		}
		fmt.Fprintf(out, "time user %d post %d: slice %d\n", q.a, q.post, *res.Slice)
	default: // topics
		fmt.Fprintf(out, "topics user %d post %d:", q.a, q.post)
		for _, tw := range res.Topics {
			fmt.Fprintf(out, " t%d=%.3f", tw.Topic, tw.Weight)
		}
		fmt.Fprintln(out)
	}
	return nil
}
