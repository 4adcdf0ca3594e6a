package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
)

// This file is the spec schema walker: the struct tags of Scenario, Sweep
// and their blocks are the spec schema, and everything that needs the list
// of spec keys — the strict decoder's unknown-key errors, the key paths
// sweep axes resolve to and the non-finite float check — reads it from those
// tags here.

// specField is one key of a spec object: its JSON name and the struct field
// it decodes into.
type specField struct {
	key   string
	index int
	typ   reflect.Type
}

// specFields caches jsonFields per struct type: validation walks the
// scenario's fields on every point of every sweep.
var specFields sync.Map

// jsonFields lists a struct's spec keys in declaration order, skipping
// fields tagged `json:"-"` (execution policy, not part of the spec).
func jsonFields(t reflect.Type) []specField {
	if cached, ok := specFields.Load(t); ok {
		return cached.([]specField)
	}
	var fields []specField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		switch name {
		case "-":
			continue
		case "":
			name = f.Name
		}
		fields = append(fields, specField{key: name, index: i, typ: f.Type})
	}
	specFields.Store(t, fields)
	return fields
}

// DecodeStrict unmarshals spec JSON into v, rejecting unknown fields and
// trailing content (a second top-level value would otherwise be silently
// dropped — the classic forgotten-array-brackets mistake). Unknown keys are
// diagnosed first by a walk over v's struct tags, which names the offending
// key, the nested block it sits in and the block's valid keys; the decoder's
// own DisallowUnknownFields remains as a backstop. Spec files, daemon
// request bodies and sweep axis patches all decode through it.
func DecodeStrict(data []byte, v any) error {
	if err := checkUnknownKeys(data, reflect.TypeOf(v).Elem(), ""); err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing content after the first JSON value (wrap multiple scenarios in an array)")
	}
	return nil
}

// checkUnknownKeys walks the spec JSON alongside the target Go type and
// reports the first unknown object key, depth-first in sorted key order. The
// error names the key, the block it appears in ("faults", "topology", ...)
// and the block's valid keys, so a spec typo comes back with its fix attached
// rather than as a bare rejection. Non-object JSON where an object is
// expected is left for the real decoder to report.
func checkUnknownKeys(data []byte, t reflect.Type, block string) error {
	switch t.Kind() {
	case reflect.Pointer:
		return checkUnknownKeys(data, t.Elem(), block)
	case reflect.Slice, reflect.Array:
		var elems []json.RawMessage
		if err := json.Unmarshal(data, &elems); err != nil {
			return nil
		}
		for _, e := range elems {
			if err := checkUnknownKeys(e, t.Elem(), block); err != nil {
				return err
			}
		}
		return nil
	case reflect.Struct:
		fields := jsonFields(t)
		if len(fields) == 0 {
			return nil // opaque type with its own UnmarshalJSON (e.g. axis values)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(data, &obj); err != nil {
			return nil
		}
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			i := slices.IndexFunc(fields, func(f specField) bool { return f.key == key })
			if i < 0 {
				valid := make([]string, len(fields))
				for i, f := range fields {
					valid[i] = f.key
				}
				sort.Strings(valid)
				loc := ""
				if block != "" {
					loc = fmt.Sprintf(" in %q block", block)
				}
				return fmt.Errorf("unknown field %q%s (valid: %s)", key, loc, strings.Join(valid, ", "))
			}
			if err := checkUnknownKeys(obj[key], fields[i].typ, key); err != nil {
				return err
			}
		}
		return nil
	default:
		return nil
	}
}

// pathKind classifies a spec key path.
type pathKind uint8

const (
	scalarPath pathKind = iota // a number, string or bool
	blockPath                  // an object of further keys
	listPath                   // an array
)

// specPaths records every dotted key path under the struct type t (each
// prefixed with prefix) and its kind in paths, and returns paths.
func specPaths(t reflect.Type, prefix string, paths map[string]pathKind) map[string]pathKind {
	for _, f := range jsonFields(t) {
		path, ft := prefix+f.key, f.typ
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		switch ft.Kind() {
		case reflect.Struct:
			paths[path] = blockPath
			specPaths(ft, path+".", paths)
		case reflect.Slice, reflect.Array, reflect.Map:
			paths[path] = listPath
		default:
			paths[path] = scalarPath
		}
	}
	return paths
}

// nonFinite finds the first NaN or ±Inf float anywhere in the spec value v
// and returns it with its key path below v (".faults.outages[0].from"). A
// non-finite parameter slips through every range check written as a
// comparison, and the run then either reports a row of zeros or never ends.
func nonFinite(v reflect.Value) (path string, f float64, found bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		f = v.Float()
		return "", f, math.IsNaN(f) || math.IsInf(f, 0)
	case reflect.Pointer:
		if !v.IsNil() {
			return nonFinite(v.Elem())
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if sub, f, found := nonFinite(v.Index(i)); found {
				return fmt.Sprintf("[%d]%s", i, sub), f, true
			}
		}
	case reflect.Struct:
		for _, fl := range jsonFields(v.Type()) {
			if sub, f, found := nonFinite(v.Field(fl.index)); found {
				return "." + fl.key + sub, f, true
			}
		}
	}
	return "", 0, false
}
