package etl

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"

	"vexus/internal/dataset"
)

// LoadUsers reads a demographic CSV whose header is
// "user,<attr1>,<attr2>,..." and registers each row against the given
// builder. Attribute columns not present in the schema are an error;
// schema attributes absent from the file are simply left missing.
// Values failing CleanField become missing; values outside an
// attribute's domain are counted and dropped (left missing) rather than
// aborting the import, because real demographic dumps are dirty.
func LoadUsers(r io.Reader, b *dataset.Builder, schema *dataset.Schema, rules CleanRules) (Report, error) {
	var rep Report
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return rep, fmt.Errorf("etl: reading users header: %w", err)
	}
	if len(header) == 0 || header[0] != "user" {
		return rep, fmt.Errorf("etl: users header must start with %q, got %v", "user", header)
	}
	cols := make([]int, len(header)) // column -> attribute index
	cols[0] = -1
	for c := 1; c < len(header); c++ {
		ai := schema.AttrIndex(header[c])
		if ai < 0 {
			return rep, fmt.Errorf("etl: users column %q not in schema", header[c])
		}
		cols[c] = ai
	}
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, fmt.Errorf("etl: reading users row: %w", err)
		}
		rep.RowsRead++
		if len(row) < 1 {
			rep.ShortRows++
			rep.RowsDropped++
			continue
		}
		id, ok := rules.CleanField(row[0])
		if !ok || id == "" {
			rep.MissingFields++
			rep.RowsDropped++
			continue
		}
		demo := make(map[string]string)
		for c := 1; c < len(row) && c < len(cols); c++ {
			v, ok := rules.CleanField(row[c])
			if !ok {
				rep.MissingFields++
				continue
			}
			attr := schema.Attrs[cols[c]]
			if attr.ValueIndex(v) < 0 {
				rep.OutOfDomain++
				continue
			}
			demo[attr.Name] = v
		}
		b.AddUser(id, demo)
		if b.Err() != nil {
			return rep, b.Err()
		}
		rep.RowsKept++
		rep.DistinctUsers++
	}
	return rep, nil
}

// LoadActions reads the generic action CSV "user,item,value[,ts]" and
// appends records to the builder. Rows referencing users the builder
// does not know are dropped and counted (real rating dumps contain
// orphan rows). Returns the cleaning report.
func LoadActions(r io.Reader, b *dataset.Builder, known func(userID string) bool, rules CleanRules) (Report, error) {
	var rep Report
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return rep, fmt.Errorf("etl: reading actions header: %w", err)
	}
	if len(header) < 3 || header[0] != "user" || header[1] != "item" || header[2] != "value" {
		return rep, fmt.Errorf("etl: actions header must be user,item,value[,ts]; got %v", header)
	}
	hasTS := len(header) >= 4 && header[3] == "ts"
	seen := make(map[[2]string]bool)
	items := make(map[string]bool)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rep, fmt.Errorf("etl: reading actions row: %w", err)
		}
		rep.RowsRead++
		if len(row) < 3 {
			rep.ShortRows++
			rep.RowsDropped++
			continue
		}
		uid, ok1 := rules.CleanField(row[0])
		iid, ok2 := rules.CleanField(row[1])
		if !ok1 || !ok2 {
			rep.MissingFields++
			rep.RowsDropped++
			continue
		}
		if !known(uid) {
			rep.UnknownUsers++
			rep.RowsDropped++
			continue
		}
		val, ok := rules.CleanValue(row[2])
		if !ok {
			rep.BadValue++
			rep.RowsDropped++
			continue
		}
		if rules.DropDuplicateActions {
			key := [2]string{uid, iid}
			if seen[key] {
				rep.DuplicateRows++
				rep.RowsDropped++
				continue
			}
			seen[key] = true
		}
		var ts int64
		if hasTS && len(row) >= 4 {
			ts, _ = strconv.ParseInt(row[3], 10, 64)
		}
		b.AddAction(uid, iid, val, ts)
		if b.Err() != nil {
			return rep, b.Err()
		}
		if !items[iid] {
			items[iid] = true
			rep.DistinctItems++
		}
		rep.RowsKept++
	}
	return rep, nil
}

// LoadUsersFile and LoadActionsFile are file-path conveniences.
func LoadUsersFile(path string, b *dataset.Builder, schema *dataset.Schema, rules CleanRules) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	return LoadUsers(f, b, schema, rules)
}

// LoadActionsFile loads an action CSV from disk; see LoadActions.
func LoadActionsFile(path string, b *dataset.Builder, known func(string) bool, rules CleanRules) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	return LoadActions(f, b, known, rules)
}
