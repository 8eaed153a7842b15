package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"llm4em/internal/datasets"
	"llm4em/internal/detrand"
	"llm4em/internal/entity"
	"llm4em/internal/vocab"
)

// opKind is what one scheduled request does.
type opKind uint8

const (
	opResolve opKind = iota // POST /v1/resolve
	opIngest                // POST /v1/records with one record
	opRead                  // GET /v1/entities/{id}
	numOpKinds
)

var opNames = [numOpKinds]string{"resolve", "ingest", "read"}

func (k opKind) String() string { return opNames[k] }

// op is one request of the timed open-loop phase.
type op struct {
	kind opKind
	rec  entity.Record // resolve query or ingested record
	id   string        // read target
}

// groupCandidates is the number of candidate offers in a hard-band
// group, one of them the query's true match.
const groupCandidates = 10

// mix is the share of each op kind in a workload's open-loop phase.
type mix [numOpKinds]float64

// spec fixes a workload's shape; the seed fills in its records.
type spec struct {
	name    string
	persist bool    // emserve -persist
	rate    float64 // offered ops/s in the open-loop phase
	mix     mix
	catalog int // preloaded catalog products
	// hardShare is the share of resolves that are hard-band group
	// queries; the rest re-render a stored product or describe an
	// unseen one.
	hardShare float64
	// capacity is the number of closed-loop resolves in each capacity
	// block.
	capacity int
}

var specs = []spec{
	{name: "catalog-local", rate: 400, mix: mix{1, 0, 0}, catalog: 20000, capacity: 1000},
	{name: "hardband-escalate", rate: 120, mix: mix{1, 0, 0}, hardShare: 1, capacity: 150},
	{name: "durable-mixed", persist: true, rate: 600, mix: mix{0.2, 0.7, 0.1}, catalog: 6000, hardShare: 0.15, capacity: 300},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// inputs is everything one run sends, generated from the seed.
type inputs struct {
	spec
	seed     int64
	blocks   int // open-loop/capacity block pairs in the timed phase
	preload  []entity.Record
	ops      []op            // open-loop schedule, in order
	capacity []entity.Record // closed-loop resolve queries
	// product maps every catalog record and query ID to the product it
	// describes; labels holds the hard-band groups' labelled (query,
	// candidate) pairs.
	product map[string]int
	labels  map[[2]string]bool
}

// gold grades one (query, candidate) decision. Catalog pairs are
// graded by product identity and a hard-band pair only when the
// generator labelled it (the query's own group). A pair across the two
// generators is not graded: both draw brands, lines and types from the
// same vocabulary, so an offer that omits its model number may
// describe either.
func (in *inputs) gold(query, cand string) (match, graded bool) {
	pq, okq := in.product[query]
	pc, okc := in.product[cand]
	if okq && okc {
		return pq == pc, true
	}
	m, ok := in.labels[[2]string{query, cand}]
	return m, ok
}

// product is one catalog item. No two products share a model number
// or the same brand, line, type and variant, so every pair of distinct
// products differs in an attribute the local scorer weighs.
type product struct {
	brand, line, ptype, model, variant string
	price                              float64
}

// catalogProducts draws n distinct products.
func catalogProducts(rng *detrand.RNG, n int) []product {
	seen := make(map[string]bool, 2*n)
	out := make([]product, 0, n)
	cats := vocab.Categories()
	variants := [][]string{vocab.Colors, vocab.Capacities, vocab.Sizes}
	for len(out) < n {
		cat := detrand.Pick(rng, cats)
		b := detrand.Pick(rng, vocab.BrandsByCategory(cat))
		p := product{
			brand:   b.Name,
			line:    detrand.Pick(rng, b.Lines),
			ptype:   detrand.Pick(rng, vocab.ProductTypesByCategory(cat)),
			variant: detrand.Pick(rng, detrand.Pick(rng, variants)),
			price:   math.Round(10*math.Exp(rng.Float64()*math.Log(500))) - 0.01,
		}
		stem := string(rune('A'+rng.Intn(26))) + string(rune('A'+rng.Intn(26))) + string(rune('A'+rng.Intn(26)))
		p.model = fmt.Sprintf("%s-%d", stem, 1000+rng.Intn(9000))
		family := p.brand + "|" + p.line + "|" + p.ptype + "|" + p.variant
		if seen[p.model] || seen[family] {
			continue
		}
		seen[p.model], seen[family] = true, true
		out = append(out, p)
	}
	return out
}

// stored renders the catalog's own offer for a product.
func (p product) stored(id string) entity.Record {
	title := strings.Join(strings.Fields(strings.Join([]string{p.brand, p.line, p.model, p.ptype, p.variant}, " ")), " ")
	return entity.Record{ID: id, Attrs: []entity.Attr{
		{Name: "brand", Value: p.brand},
		{Name: "title", Value: title},
		{Name: "price", Value: strconv.FormatFloat(p.price, 'f', 2, 64)},
	}}
}

// query renders the same product as a second source would describe
// it: lower case, sometimes a compact model number, and a jittered
// price.
func (p product) query(rng *detrand.RNG, id string) entity.Record {
	model := p.model
	if rng.Bool(0.5) {
		model = strings.ReplaceAll(model, "-", "")
	}
	words := []string{p.brand, p.line, model, p.ptype, p.variant}
	price := p.price * (1 + 0.01*rng.Gauss())
	return entity.Record{ID: id, Attrs: []entity.Attr{
		{Name: "brand", Value: p.brand},
		{Name: "title", Value: strings.ToLower(strings.Join(words, " "))},
		{Name: "price", Value: strconv.FormatFloat(price, 'f', 2, 64)},
	}}
}

// generate builds a run's inputs. The open-loop phase holds
// rate×seconds ops; every resolve query and ingested record is
// distinct, so no answer comes from a cache the previous op filled.
func generate(sp spec, seed int64, seconds int) (*inputs, error) {
	in := &inputs{
		spec:    sp,
		seed:    seed,
		product: map[string]int{},
		labels:  map[[2]string]bool{},
	}
	seedStr := strconv.FormatInt(seed, 10)
	rng := detrand.New("e2ebench", sp.name, seedStr)
	nOps := int(sp.rate * float64(seconds))
	kinds := make([]opKind, nOps)
	var count [numOpKinds]int
	for i := range kinds {
		u, k := rng.Float64(), opResolve
		for k < numOpKinds-1 && u >= sp.mix[k] {
			u -= sp.mix[k]
			k++
		}
		kinds[i] = k
		count[k]++
	}
	in.blocks = max(1, seconds/blockSeconds)
	nResolve := count[opResolve] + sp.capacity*in.blocks
	nHard := int(float64(nResolve)*sp.hardShare + 0.5)

	// Catalog: stored products, then products only queries describe,
	// then products only ingests add.
	nUnseen := (nResolve - nHard) * 3 / 10
	prods := catalogProducts(rng, sp.catalog+nUnseen+count[opIngest])
	for i := 0; i < sp.catalog; i++ {
		id := fmt.Sprintf("c%06d", i)
		in.preload = append(in.preload, prods[i].stored(id))
		in.product[id] = i
	}

	// Hard band: one group per hard-band resolve. The candidate offers
	// of every group are preloaded; each group's query is resolved once.
	var hardQueries []entity.Record
	if nHard > 0 {
		pairs, err := datasets.GroupedPairs("wdc", seedStr, nHard, groupCandidates)
		if err != nil {
			return nil, err
		}
		for i, p := range pairs {
			if i%groupCandidates == 0 {
				hardQueries = append(hardQueries, p.A)
			}
			in.labels[[2]string{p.A.ID, p.B.ID}] = p.Match
			in.preload = append(in.preload, p.B)
		}
		// Preload order interleaves both kinds of record.
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(in.preload), func(i, j int) { in.preload[i], in.preload[j] = in.preload[j], in.preload[i] })
		r.Shuffle(len(hardQueries), func(i, j int) { hardQueries[i], hardQueries[j] = hardQueries[j], hardQueries[i] })
	}

	// Resolve queries: hard-band queries spread evenly among catalog
	// queries; catalog queries re-render a stored product (70%) or
	// describe an unseen one.
	queries := make([]entity.Record, 0, nResolve)
	unseen, hi := sp.catalog, 0
	for i := 0; i < nResolve; i++ {
		if hi < nHard && (i+1)*nHard >= (hi+1)*nResolve {
			queries = append(queries, hardQueries[hi])
			hi++
			continue
		}
		id := fmt.Sprintf("q%06d", i)
		pi := rng.Intn(sp.catalog)
		if unseen < sp.catalog+nUnseen && rng.Bool(0.3) {
			pi = unseen
			unseen++
		}
		queries = append(queries, prods[pi].query(rng, id))
		in.product[id] = pi
	}

	// Reads follow a Zipf law over the preloaded IDs.
	ids := make([]string, len(in.preload))
	for i, r := range in.preload {
		ids[i] = r.ID
	}
	sort.Strings(ids)
	zr := rand.New(rand.NewSource(seed ^ 0x5eed))
	zr.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	zipf := rand.NewZipf(zr, 1.1, 1, uint64(len(ids)-1))

	qi, ni := 0, sp.catalog+nUnseen
	in.ops = make([]op, nOps)
	for i, k := range kinds {
		switch k {
		case opResolve:
			in.ops[i] = op{kind: k, rec: queries[qi]}
			qi++
		case opIngest:
			id := fmt.Sprintf("n%06d", ni)
			in.ops[i] = op{kind: k, rec: prods[ni].stored(id)}
			in.product[id] = ni
			ni++
		case opRead:
			in.ops[i] = op{kind: k, id: ids[zipf.Uint64()]}
		}
	}
	in.capacity = queries[qi:]
	return in, nil
}
