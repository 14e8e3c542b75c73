// Command hrdbms-cli is an interactive SQL shell over an embedded HRDBMS
// cluster. Statements end with ';'. Meta commands: \q quits, \tables lists
// tables.
//
// Usage:
//
//	hrdbms-cli -workers 4 -dir /tmp/hrdbms
//	hrdbms-cli -tpch 0.001            # preload TPC-H at SF 0.001
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/tpch"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hrdbms-cli:", err)
		os.Exit(1)
	}
}

// run is the shell; an error ends it after its deferred cleanup has run.
func run() error {
	workers := flag.Int("workers", 4, "number of worker nodes")
	dir := flag.String("dir", "", "data directory (default: temp)")
	tpchSF := flag.Float64("tpch", 0, "preload TPC-H at this scale factor")
	flag.Parse()

	baseDir := *dir
	if baseDir == "" {
		var err error
		if baseDir, err = os.MkdirTemp("", "hrdbms-cli-*"); err != nil {
			return err
		}
		defer os.RemoveAll(baseDir)
	}
	db, err := core.Open(core.Config{Workers: *workers, Dir: baseDir})
	if err != nil {
		return err
	}
	defer db.Close()

	if *tpchSF > 0 {
		fmt.Printf("loading TPC-H SF%g...\n", *tpchSF)
		for _, ddl := range tpch.DDL() {
			if _, err := db.Exec(ddl); err != nil {
				return err
			}
		}
		data := tpch.Generate(*tpchSF, 1)
		for tbl, rows := range data.Tables() {
			n, err := db.Load(tbl, rows)
			if err != nil {
				return err
			}
			fmt.Printf("  %s: %d rows\n", tbl, n)
		}
	}

	fmt.Printf("HRDBMS shell — %d workers, data in %s. End statements with ';', \\q to quit.\n",
		*workers, baseDir)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var pending strings.Builder
	fmt.Print("hrdbms> ")
	for sc.Scan() && strings.TrimSpace(sc.Text()) != `\q` {
		line := sc.Text()
		if strings.TrimSpace(line) == `\tables` {
			for _, t := range db.Catalog().Tables() {
				fmt.Println(" ", t)
			}
			fmt.Print("hrdbms> ")
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") {
			fmt.Print("   ...> ")
			continue
		}
		sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(pending.String()), ";"))
		pending.Reset()
		if sql != "" {
			runStatement(db, sql)
		}
		fmt.Print("hrdbms> ")
	}
	return nil
}

func runStatement(db *core.DB, sql string) {
	start := time.Now()
	res, err := db.Exec(sql)
	elapsed := time.Since(start)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if res.Message != "" {
		fmt.Printf("%s (%.3fs)\n", res.Message, elapsed.Seconds())
		return
	}
	// EXPLAIN / EXPLAIN ANALYZE return one "plan" column of preformatted
	// lines; print them raw instead of as a tab table.
	if res.Schema.Len() == 1 && res.Schema.Cols[0].Name == "plan" {
		for _, r := range res.Rows {
			fmt.Println(r[0].Str())
		}
		fmt.Printf("(%.3fs)\n", elapsed.Seconds())
		return
	}
	if res.Schema.Len() > 0 {
		names := make([]string, res.Schema.Len())
		for i, c := range res.Schema.Cols {
			names[i] = c.Name
		}
		fmt.Println(strings.Join(names, "\t"))
		fmt.Println(strings.Repeat("-", 8*len(names)))
	}
	for i, r := range res.Rows {
		if i >= 200 {
			fmt.Printf("... (%d more rows)\n", len(res.Rows)-i)
			break
		}
		fmt.Println(r.String())
	}
	fmt.Printf("(%d rows, %.3fs)\n", len(res.Rows), elapsed.Seconds())
}
