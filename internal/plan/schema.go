package plan

// The proxy schema the IR validates against. The schema is *derived*
// from the engine (pvsim.PlanSchema builds it from the same classSchema
// registry that executes scripts), so validation can never drift from
// what execution accepts — the single-source-of-truth property the
// paper's "ground the model in ParaView's real API" future work asks
// for.

// PropType classifies what values a property accepts. Types are inferred
// from the engine's default values, so checking stays deliberately
// lenient where ParaView itself is lenient (scalar-for-list, bare string
// for association pairs).
type PropType string

// Property types.
const (
	// TypeAny accepts anything (properties with no declared default).
	TypeAny PropType = "any"
	// TypeStr accepts strings.
	TypeStr PropType = "str"
	// TypeNum accepts numbers and booleans.
	TypeNum PropType = "num"
	// TypeNumList accepts numeric lists and scalar numbers.
	TypeNumList PropType = "numlist"
	// TypeAssoc accepts ('ASSOCIATION', 'array') pairs or bare strings.
	TypeAssoc PropType = "assoc"
	// TypeList accepts any list (or scalar, which ParaView broadcasts).
	TypeList PropType = "list"
	// TypeHelper accepts a nested helper proxy (or its class name).
	TypeHelper PropType = "helper"
)

// Prop declares one settable property.
type Prop struct {
	Type    PropType `json:"type"`
	Default *Value   `json:"default,omitempty"`
}

// Class declares one proxy class: kind, properties, methods.
type Class struct {
	Name    string          `json:"name"`
	Kind    string          `json:"kind"` // source, filter, view, representation, helper, ...
	Props   map[string]Prop `json:"props"`
	Methods map[string]bool `json:"methods,omitempty"`
}

// HasProp reports whether the class declares the property.
func (c *Class) HasProp(name string) bool {
	_, ok := c.Props[name]
	return ok
}

// HasMember reports whether the name is a property or method.
func (c *Class) HasMember(name string) bool {
	return c.HasProp(name) || c.Methods[name]
}

// Schema is the full validated surface: proxy classes plus the
// module-level paraview.simple functions.
type Schema struct {
	Classes   map[string]*Class `json:"classes"`
	Functions map[string]bool   `json:"functions,omitempty"`
}

// Class looks a class up by name (nil when unknown).
func (s *Schema) Class(name string) *Class {
	if s == nil {
		return nil
	}
	return s.Classes[name]
}

// InferType derives a property type from its default value.
func InferType(def *Value) PropType {
	if def == nil {
		return TypeAny
	}
	switch def.Kind {
	case KindStr:
		return TypeStr
	case KindNum, KindBool:
		return TypeNum
	case KindHelper:
		return TypeHelper
	case KindList:
		if len(def.List) == 0 {
			return TypeList
		}
		for _, it := range def.List {
			if it.Kind == KindStr {
				return TypeAssoc
			}
		}
		return TypeNumList
	}
	return TypeAny
}

// TypeAccepts reports whether a value is admissible for a property type.
// The rules mirror the engine's own coercions (propFloats accepts
// scalars, propAssoc accepts bare strings), so validation only flags
// assignments that would genuinely misbehave.
func TypeAccepts(t PropType, v Value) bool {
	if v.Kind == KindNone {
		return true
	}
	switch t {
	case TypeAny, TypeList:
		return true
	case TypeStr:
		return v.Kind == KindStr
	case TypeNum:
		return v.Kind == KindNum || v.Kind == KindBool
	case TypeNumList:
		if v.Kind == KindNum || v.Kind == KindBool {
			return true
		}
		if v.Kind != KindList {
			return false
		}
		for _, it := range v.List {
			if it.Kind != KindNum && it.Kind != KindBool {
				return false
			}
		}
		return true
	case TypeAssoc:
		return v.Kind == KindStr || v.Kind == KindList
	case TypeHelper:
		return v.Kind == KindHelper || v.Kind == KindStr
	}
	return true
}

// HelperDefaults maps constructor classes to the helper proxies the
// engine attaches implicitly, so compilation and normalization agree on
// what an unset SliceType means.
var HelperDefaults = map[string]map[string]string{
	"Slice":        {"SliceType": "Plane"},
	"Clip":         {"ClipType": "Plane"},
	"StreamTracer": {"SeedType": "Point Cloud"},
	"Transform":    {"Transform": "TransformHelper"},
}

// screenshotProps are the arguments a screenshot stage understands.
// Unknown SaveScreenshot kwargs are warnings only — the engine ignores
// extras the way pvpython does.
var screenshotProps = map[string]bool{
	PropFilename:        true,
	PropImageResolution: true,
	PropOverridePalette: true,
}
