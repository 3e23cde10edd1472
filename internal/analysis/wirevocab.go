package analysis

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
)

var snakeCase = regexp.MustCompile(`^[a-z0-9_]+$`)

// WireVocabulary checks the wire naming rule (DESIGN.md "Static analysis")
// on every struct reachable from roots through fields, pointers, slices,
// arrays and maps: each exported field carries an explicit lowercase
// snake_case `json` key, or `json:"-"`, since an implicit name drifts with a
// Go rename. An untagged embedded struct is inlined by encoding/json, so its
// fields are checked in its place. It returns one message per field that
// breaks the rule, and the json names of the leaf fields, those that reach
// no struct, which the docs tests look up in DESIGN.md.
func WireVocabulary(roots ...reflect.Type) (leaves map[string]bool, faults []string) {
	leaves = make(map[string]bool)
	seen := make(map[reflect.Type]bool)
	var walk func(reflect.Type) bool // reports whether typ reaches a struct
	walk = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			return walk(typ.Elem())
		case reflect.Map:
			return walk(typ.Key()) || walk(typ.Elem())
		case reflect.Struct:
			if seen[typ] {
				return true
			}
			seen[typ] = true
		default:
			return false
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			tag, tagged := f.Tag.Lookup("json")
			name, _, _ := strings.Cut(tag, ",")
			switch {
			case f.Anonymous && !tagged:
				walk(f.Type)
			case !f.IsExported() || name == "-":
			case !tagged:
				faults = append(faults, fmt.Sprintf("%s.%s has no json key: tag it snake_case, or `json:\"-\"`", typ, f.Name))
			case !snakeCase.MatchString(name):
				faults = append(faults, fmt.Sprintf("%s.%s has json name %q, which is not lowercase snake_case", typ, f.Name, name))
			case !walk(f.Type):
				leaves[name] = true
			}
		}
		return true
	}
	for _, root := range roots {
		walk(root)
	}
	return leaves, faults
}
