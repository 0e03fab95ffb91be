// Command graphitti is the CLI equivalent of the paper's three-tab Java
// GUI: the annotate, query and admin workflows run as sub-commands over a
// generated demonstration study (the store is in-memory; the original demo
// was equally session-scoped).
//
// Usage:
//
//	graphitti [-study influenza|neuro] [-anns N] <command> [args]
//
// Commands:
//
//	stats                          admin tab: component sizes
//	search <xquery>                content search over annotation XML
//	query <graph-query>            the SPARQL-like query language
//	annotate -domain D -lo L -hi H -creator C -body B [-term ont/term]
//	                               annotation tab: mark + commit, prints XML
//	related -ann ID                indirect relations of an annotation
//	correlated -ann ID             correlated-data view of an annotation
//	q1                             the paper's intro query (neuro study)
//	q2 [-k K] [-keyword W]         the query-tab query (influenza study)
//	metrics                        dump the process metric registry
//	metrics-lint                   validate the Prometheus exposition format
//	traces [-url U | -f FILE]      render /debug/traces output as ASCII
//	                               span trees (see docs/TRACING.md)
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"graphitti"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/obs"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "graphitti:", err)
		os.Exit(1)
	}
}

// run executes one command line; with -save, a failed save is part of its
// error.
func run(args []string) (err error) {
	global := flag.NewFlagSet("graphitti", flag.ContinueOnError)
	studyName := global.String("study", "influenza", "demo study to load: influenza or neuro")
	anns := global.Int("anns", 400, "annotation count for the influenza study")
	images := global.Int("images", 12, "image count for the neuro study")
	load := global.String("load", "", "load the store from a snapshot file instead of generating a study")
	save := global.String("save", "", "write the store to a snapshot file after the command")
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		global.Usage()
		return fmt.Errorf("missing command (stats|search|query|annotate|related|correlated|q1|q2|metrics|metrics-lint)")
	}
	// metrics-lint and traces inspect the registry / a server's trace
	// dump only; don't build a store for them.
	if rest[0] == "metrics-lint" {
		return cmdMetricsLint(os.Stdout, rest[1:])
	}
	if rest[0] == "traces" {
		return cmdTraces(os.Stdout, rest[1:])
	}

	var store *graphitti.Store
	switch {
	case *load != "":
		f, err := os.Open(*load)
		if err != nil {
			return err
		}
		st, err := persist.Read(f)
		f.Close()
		if err != nil {
			return err
		}
		store = st
	case *studyName == "none", *studyName == "empty":
		store = graphitti.New()
	case *studyName == "influenza":
		cfg := workload.DefaultInfluenza
		cfg.Annotations = *anns
		study, err := workload.Influenza(cfg)
		if err != nil {
			return err
		}
		store = study.Store
	case *studyName == "neuro":
		cfg := workload.DefaultNeuro
		cfg.Images = *images
		study, err := workload.Neuroscience(cfg)
		if err != nil {
			return err
		}
		store = study.Store
	default:
		return fmt.Errorf("unknown study %q", *studyName)
	}
	if *save != "" {
		defer func() {
			if serr := saveStore(store, *save); serr != nil {
				err = errors.Join(err, fmt.Errorf("save: %w", serr))
			}
		}()
	}

	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "stats":
		return cmdStats(store)
	case "search":
		return cmdSearch(store, cmdArgs)
	case "query":
		return cmdQuery(store, cmdArgs)
	case "annotate":
		return cmdAnnotate(store, cmdArgs)
	case "related":
		return cmdRelated(store, cmdArgs)
	case "correlated":
		return cmdCorrelated(store, cmdArgs)
	case "q1":
		return cmdQ1(store)
	case "q2":
		return cmdQ2(store, cmdArgs)
	case "register":
		return cmdRegister(store, cmdArgs)
	case "connect":
		return cmdConnect(store, cmdArgs)
	case "ontology":
		return cmdOntology(store, cmdArgs)
	case "metrics":
		// Building the study above already exercised the store, so the
		// gauges and commit histograms reflect it.
		return obs.Default.WritePrometheus(os.Stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// saveStore writes the store's JSON export to path.
func saveStore(s *graphitti.Store, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := persist.Write(s, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdMetricsLint runs the strict Prometheus exposition validator — the
// offline form of the CI scrape check. By default it serializes the
// in-process registry (package imports alone register every metric, so a
// name or label defect fails before a server ever runs); -f validates a
// scraped file instead, and -min-families guards against a server that
// silently stopped exposing whole subsystems.
func cmdMetricsLint(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("metrics-lint", flag.ContinueOnError)
	file := fs.String("f", "", "validate this scraped exposition file ('-' for stdin) instead of the in-process registry")
	minFamilies := fs.Int("min-families", 0, "fail unless at least this many metric families are present")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var src io.Reader
	switch *file {
	case "":
		var buf bytes.Buffer
		if err := obs.Default.WritePrometheus(&buf); err != nil {
			return err
		}
		src = &buf
	case "-":
		src = os.Stdin
	default:
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	exp, err := obs.ValidateExposition(src)
	if err != nil {
		return fmt.Errorf("metrics-lint: %w", err)
	}
	if len(exp.Families) < *minFamilies {
		return fmt.Errorf("metrics-lint: %d metric families, want at least %d", len(exp.Families), *minFamilies)
	}
	fmt.Fprintf(w, "metrics-lint: ok — %d families, %d samples\n", len(exp.Families), exp.Samples)
	return nil
}

// cmdOntology browses a registered ontology: the CLI form of the
// annotation tab's right panel (OntoQuest browsing).
func cmdOntology(s *graphitti.Store, args []string) error {
	fs := flag.NewFlagSet("ontology", flag.ContinueOnError)
	name := fs.String("name", "", "ontology to browse (default: first registered)")
	ci := fs.String("ci", "", "print all instances (CI) of this concept")
	subtree := fs.String("subtree", "", "print the is_a subtree under this term")
	annotated := fs.String("annotated", "", "list annotations referencing this term or its instances")
	if err := fs.Parse(args); err != nil {
		return err
	}
	v := s.View()
	names := v.Ontologies()
	if len(names) == 0 {
		return fmt.Errorf("no ontologies registered")
	}
	if *name == "" {
		*name = names[0]
	}
	ont, err := v.Ontology(*name)
	if err != nil {
		return err
	}
	switch {
	case *ci != "":
		got, err := ont.CI(*ci)
		if err != nil {
			return err
		}
		fmt.Printf("CI(%s) in %s: %d instance(s)\n", *ci, *name, len(got))
		for _, t := range got {
			term, _ := ont.Term(t)
			fmt.Printf("  %s (%s)\n", t, term.Name)
		}
	case *subtree != "":
		st, err := ont.SubTree(*subtree, []string{ontology.IsA})
		if err != nil {
			return err
		}
		fmt.Printf("SubTree(%s) in %s: %d term(s), %d edge(s)\n",
			*subtree, *name, st.Size(), len(st.Edges))
		for _, e := range st.Edges {
			fmt.Printf("  %s -%s-> %s\n", e.From, e.Rel, e.To)
		}
	case *annotated != "":
		anns, err := v.AnnotationsWithTermUnder(*name, *annotated)
		if err != nil {
			return err
		}
		fmt.Printf("%d annotation(s) reference %s or its instances\n", len(anns), *annotated)
		for _, ann := range anns {
			fmt.Printf("  %d by %s (%q)\n", ann.ID, ann.DC.First("creator"), ann.DC.First("title"))
		}
	default:
		fmt.Printf("ontology %s: %d terms, %d edges; roots:\n", *name, ont.Len(), ont.EdgeCount())
		for _, r := range ont.Roots() {
			term, _ := ont.Term(r)
			fmt.Printf("  %s (%s)\n", r, term.Name)
		}
	}
	return nil
}

// cmdRegister loads data objects from files: FASTA sequences, OBO
// ontologies, Newick trees. Combined with -save/-load this is the admin
// tab's registration workflow.
func cmdRegister(s *graphitti.Store, args []string) error {
	fs := flag.NewFlagSet("register", flag.ContinueOnError)
	fasta := fs.String("fasta", "", "FASTA file of sequences to register")
	kind := fs.String("kind", "dna", "sequence kind for -fasta: dna, rna or protein")
	domain := fs.String("domain", "", "coordinate domain for -fasta sequences (default: per-sequence)")
	obo := fs.String("obo", "", "OBO ontology file to register")
	newick := fs.String("newick", "", "Newick tree file to register")
	treeID := fs.String("id", "tree-1", "tree ID for -newick")
	if err := fs.Parse(args); err != nil {
		return err
	}
	registered := 0
	if *fasta != "" {
		f, err := os.Open(*fasta)
		if err != nil {
			return err
		}
		defer f.Close()
		var k seq.Kind
		switch *kind {
		case "dna":
			k = seq.DNA
		case "rna":
			k = seq.RNA
		case "protein":
			k = seq.Protein
		default:
			return fmt.Errorf("unknown sequence kind %q", *kind)
		}
		seqs, err := seq.ParseFASTA(f, k)
		if err != nil {
			return err
		}
		for _, sq := range seqs {
			sq.Domain = *domain
			if err := s.RegisterSequence(sq); err != nil {
				return err
			}
			fmt.Printf("registered %s sequence %s (%d residues)\n", *kind, sq.ID, sq.Len())
			registered++
		}
	}
	if *obo != "" {
		f, err := os.Open(*obo)
		if err != nil {
			return err
		}
		defer f.Close()
		ont, err := ontology.ParseOBO(f)
		if err != nil {
			return err
		}
		if err := ont.Validate(); err != nil {
			return err
		}
		if err := s.RegisterOntology(ont); err != nil {
			return err
		}
		fmt.Printf("registered ontology %s (%d terms, %d edges)\n",
			ont.Name(), ont.Len(), ont.EdgeCount())
		registered++
	}
	if *newick != "" {
		raw, err := os.ReadFile(*newick)
		if err != nil {
			return err
		}
		tree, err := phylo.ParseNewick(*treeID, strings.TrimSpace(string(raw)))
		if err != nil {
			return err
		}
		if err := s.RegisterTree(tree); err != nil {
			return err
		}
		fmt.Printf("registered tree %s (%d leaves)\n", tree.ID, tree.NumLeaves())
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("register: pass at least one of -fasta, -obo, -newick")
	}
	return nil
}

// cmdConnect prints the connection subgraph of a set of annotations,
// optionally as Graphviz DOT.
func cmdConnect(s *graphitti.Store, args []string) error {
	fs := flag.NewFlagSet("connect", flag.ContinueOnError)
	annList := fs.String("anns", "", "comma-separated annotation IDs (at least two)")
	dot := fs.Bool("dot", false, "emit Graphviz DOT instead of a listing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var ids []uint64
	for _, part := range strings.Split(*annList, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			return fmt.Errorf("bad annotation id %q", part)
		}
		ids = append(ids, id)
	}
	if len(ids) < 2 {
		return fmt.Errorf("connect: -anns wants at least two IDs")
	}
	sg, err := s.View().ConnectAnnotations(ids...)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(sg.DOT("connect"))
		return nil
	}
	fmt.Printf("connection subgraph: %d nodes, %d edges, connected=%v\n",
		sg.NodeCount(), sg.EdgeCount(), sg.Connected())
	for _, n := range sg.Nodes {
		fmt.Printf("  %v\n", n)
	}
	for _, e := range sg.Edges {
		fmt.Printf("  %v -[%s]-> %v\n", e.From, e.Label, e.To)
	}
	return nil
}

func cmdStats(s *graphitti.Store) error {
	st := s.Stats()
	fmt.Println("Graphitti store (admin view)")
	fmt.Printf("  annotations        %6d\n", st.Annotations)
	fmt.Printf("  referents          %6d\n", st.Referents)
	fmt.Printf("  sequences          %6d\n", st.Sequences)
	fmt.Printf("  alignments         %6d\n", st.Alignments)
	fmt.Printf("  phylo trees        %6d\n", st.Trees)
	fmt.Printf("  interaction graphs %6d\n", st.InteractionGraphs)
	fmt.Printf("  images             %6d\n", st.Images)
	fmt.Printf("  ontologies         %6d\n", st.Ontologies)
	fmt.Printf("  interval trees     %6d\n", st.IntervalTrees)
	fmt.Printf("  R-trees            %6d\n", st.RTrees)
	fmt.Printf("  a-graph nodes      %6d\n", st.GraphNodes)
	fmt.Printf("  a-graph edges      %6d\n", st.GraphEdges)
	fmt.Printf("  indexed keywords   %6d\n", st.Keywords)
	return nil
}

func cmdSearch(s *graphitti.Store, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: search <xquery-expression>")
	}
	anns, err := s.View().SearchContents(args[0])
	if err != nil {
		return err
	}
	fmt.Printf("%d annotation(s) match\n", len(anns))
	for _, ann := range anns {
		fmt.Printf("--- annotation %d ---\n%s", ann.ID, ann.Content.String())
	}
	return nil
}

func cmdQuery(s *graphitti.Store, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: query <graph-query>")
	}
	p := graphitti.NewProcessor(s)
	res, err := p.Execute(args[0], graphitti.DefaultQueryOptions)
	if err != nil {
		return err
	}
	fmt.Printf("plan order: %s\n", strings.Join(res.Stats.Order, " -> "))
	for _, v := range res.Stats.Order {
		fmt.Printf("  sub-query ?%s: %d candidates, est. cost %.1f, %s\n",
			v, res.Stats.CandidateCounts[v], res.Stats.Costs[v], res.Stats.Strategies[v])
	}
	fmt.Printf("%d match(es), %d binding(s) tried\n", res.Stats.Matches, res.Stats.BindingsTried)
	for _, ann := range res.Annotations {
		fmt.Printf("--- annotation %d ---\n%s", ann.ID, ann.Content.String())
	}
	for _, r := range res.Referents {
		fmt.Println(" ", r)
	}
	for i, sg := range res.Subgraphs {
		fmt.Printf("  subgraph %d: %d nodes, %d edges\n", i+1, sg.NodeCount(), sg.EdgeCount())
		for _, n := range sg.Nodes {
			fmt.Printf("    %v\n", n)
		}
	}
	return nil
}

func cmdAnnotate(s *graphitti.Store, args []string) error {
	fs := flag.NewFlagSet("annotate", flag.ContinueOnError)
	domain := fs.String("domain", "segment1", "coordinate domain to mark")
	lo := fs.Int64("lo", 0, "interval start")
	hi := fs.Int64("hi", 100, "interval end (exclusive)")
	creator := fs.String("creator", "cli-user", "Dublin Core creator")
	date := fs.String("date", "2008-04-07", "Dublin Core date")
	body := fs.String("body", "annotated from the CLI", "annotation body text")
	term := fs.String("term", "", "ontology reference as ontology/termID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := s.MarkDomainInterval(*domain, graphitti.Span(*lo, *hi))
	if err != nil {
		return err
	}
	b := s.NewAnnotation().Creator(*creator).Date(*date).Body(*body).Refer(m)
	if *term != "" {
		ont, t, ok := strings.Cut(*term, "/")
		if !ok {
			return fmt.Errorf("-term wants ontology/termID, got %q", *term)
		}
		b.OntologyRef(ont, t)
	}
	ann, err := s.Commit(b)
	if err != nil {
		return err
	}
	fmt.Printf("committed annotation %d:\n%s", ann.ID, ann.Content.String())
	return nil
}

func parseAnnID(args []string) (uint64, error) {
	fs := flag.NewFlagSet("ann", flag.ContinueOnError)
	ann := fs.Uint64("ann", 1, "annotation ID")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	return *ann, nil
}

func cmdRelated(s *graphitti.Store, args []string) error {
	id, err := parseAnnID(args)
	if err != nil {
		return err
	}
	rel, err := s.RelatedAnnotations(id)
	if err != nil {
		return err
	}
	fmt.Printf("%d annotation(s) indirectly related to %d\n", len(rel), id)
	for _, ann := range rel {
		fmt.Printf("  %d  creator=%s  title=%q\n", ann.ID,
			ann.DC.First("creator"), ann.DC.First("title"))
	}
	return nil
}

func cmdCorrelated(s *graphitti.Store, args []string) error {
	id, err := parseAnnID(args)
	if err != nil {
		return err
	}
	items, err := s.View().CorrelatedData(id)
	if err != nil {
		return err
	}
	fmt.Printf("correlated data of annotation %d:\n", id)
	for _, it := range items {
		fmt.Printf("  [%s] %s\n", it.Label, it.Description)
	}
	return nil
}

func cmdQ1(s *graphitti.Store) error {
	res, err := graphitti.QueryTP53Images(s, graphitti.TP53Options{})
	if err != nil {
		return err
	}
	fmt.Println("Q1: annotations containing \"protein.TP53\" with paths to all")
	fmt.Println("    images having >= 2 regions annotated \"Deep Cerebellar nuclei\"")
	fmt.Printf("qualifying images (%d):\n", len(res.QualifyingImages))
	for _, img := range res.QualifyingImages {
		fmt.Printf("  %s (%d matching regions)\n", img, res.RegionCounts[img])
	}
	fmt.Printf("answers (%d):\n", len(res.Annotations))
	for _, ann := range res.Annotations {
		fmt.Printf("  annotation %d  title=%q\n", ann.ID, ann.DC.First("title"))
	}
	return nil
}

func cmdQ2(s *graphitti.Store, args []string) error {
	fs := flag.NewFlagSet("q2", flag.ContinueOnError)
	k := fs.Int("k", 4, "chain length")
	keyword := fs.String("keyword", "protease", "keyword each link must contain")
	if err := fs.Parse(args); err != nil {
		return err
	}
	chains, err := graphitti.QueryConsecutiveKeyword(s, graphitti.ConsecutiveOptions{
		Keyword: *keyword, K: *k,
	})
	if err != nil {
		return err
	}
	fmt.Printf("Q2: %d chain(s) of %d consecutive disjoint %q intervals\n",
		len(chains), *k, *keyword)
	for i, c := range chains {
		fmt.Printf("  chain %d on %s (sequences %s):\n", i+1, c.Domain,
			strings.Join(c.Sequences, ","))
		for _, r := range c.Referents {
			fmt.Printf("    %v\n", r.Interval)
		}
	}
	return nil
}
