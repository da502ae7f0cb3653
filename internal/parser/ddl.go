package parser

import (
	"piql/internal/schema"
	"piql/internal/value"
)

// CreateIndex wraps a parsed CREATE INDEX statement. The optimizer
// usually derives indexes automatically (Section 5.3); this statement
// exists for manual control and tests.
type CreateIndex struct {
	Index *schema.Index
}

func (*CreateIndex) stmt() {}

func (s *CreateIndex) String() string { return "CREATE INDEX " + s.Index.Name }

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	switch {
	case p.accept(tokKeyword, "TABLE"):
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex()
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE, found %q", p.peek().text)
	}
}

// parseCreateTable parses the PIQL DDL:
//
//	CREATE TABLE name (
//	    col TYPE [, ...],
//	    PRIMARY KEY (cols),
//	    FOREIGN KEY (cols) REFERENCES table,
//	    CARDINALITY LIMIT n (cols)
//	)
func (p *parser) parseCreateTable() (*CreateTable, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	t := &schema.Table{Name: name}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for more := true; more; more = p.accept(tokSymbol, ",") {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := parenList(p, p.expectIdent)
			if err != nil {
				return nil, err
			}
			if t.PrimaryKey != nil {
				return nil, p.errorf("duplicate PRIMARY KEY clause")
			}
			t.PrimaryKey = cols
		case p.accept(tokKeyword, "FOREIGN"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			cols, err := parenList(p, p.expectIdent)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "REFERENCES"); err != nil {
				return nil, err
			}
			ref, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			t.ForeignKeys = append(t.ForeignKeys, schema.ForeignKey{Columns: cols, RefTable: ref})
		case p.accept(tokKeyword, "CARDINALITY"):
			if _, err := p.expect(tokKeyword, "LIMIT"); err != nil {
				return nil, err
			}
			limit, err := p.positiveInt("CARDINALITY LIMIT")
			if err != nil {
				return nil, err
			}
			cols, err := parenList(p, p.expectIdent)
			if err != nil {
				return nil, err
			}
			t.Cardinalities = append(t.Cardinalities, schema.Cardinality{Limit: limit, Columns: cols})
		default:
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			t.Columns = append(t.Columns, col)
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateTable{Table: t}, nil
}

func (p *parser) parseColumnDef() (schema.Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return schema.Column{}, err
	}
	col := schema.Column{Name: name}
	typ := p.next()
	if typ.kind != tokKeyword {
		return schema.Column{}, p.errorf("expected a type for column %q, found %q", name, typ.text)
	}
	switch typ.text {
	case "INT", "BIGINT", "TIMESTAMP":
		col.Type = value.TypeInt
	case "DOUBLE", "FLOAT":
		col.Type = value.TypeFloat
	case "BOOLEAN":
		col.Type = value.TypeBool
	case "VARCHAR":
		col.Type = value.TypeString
		if p.accept(tokSymbol, "(") {
			if col.MaxLen, err = p.positiveInt("VARCHAR length"); err != nil {
				return schema.Column{}, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return schema.Column{}, err
			}
		}
	case "TEXT":
		col.Type = value.TypeString
	case "BLOB":
		col.Type = value.TypeBytes
	default:
		return schema.Column{}, p.errorf("unknown type %q for column %q", typ.text, name)
	}
	// Tolerated no-op modifiers.
	for {
		switch {
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return schema.Column{}, err
			}
		case p.accept(tokKeyword, "UNIQUE"):
		default:
			return col, nil
		}
	}
}

// parseCreateIndex parses CREATE INDEX name ON table (field [, ...])
// where field is `col`, `col DESC`, or `TOKEN(col)`.
func (p *parser) parseCreateIndex() (*CreateIndex, error) {
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	fields, err := parenList(p, p.parseIndexField)
	if err != nil {
		return nil, err
	}
	return &CreateIndex{Index: &schema.Index{Name: name, Table: table, Fields: fields}}, nil
}

// parseIndexField parses `col` or `TOKEN(col)`, either followed by an
// optional ASC or DESC.
func (p *parser) parseIndexField() (schema.IndexField, error) {
	tokenized := p.accept(tokKeyword, "TOKEN")
	if tokenized {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return schema.IndexField{}, err
		}
	}
	col, err := p.expectIdent()
	if err != nil {
		return schema.IndexField{}, err
	}
	if tokenized {
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return schema.IndexField{}, err
		}
	}
	return schema.IndexField{Column: col, Token: tokenized, Desc: p.parseDesc()}, nil
}
