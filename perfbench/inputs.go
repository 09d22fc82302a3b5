package main

import (
	"bytes"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// Every input is the DBpedia2022 profile from internal/datagen, generated
// from the run's seed: the same seed gives byte-identical inputs.
func profile() *datagen.Profile { return datagen.DBpedia2022() }

// genGraph generates the seeded dataset at scale.
func genGraph(scale float64, seed int64) *rdf.Graph {
	return datagen.Generate(profile(), scale, seed)
}

// genNTriples generates the seeded dataset as an N-Triples document.
func genNTriples(scale float64, seed int64) ([]byte, int, error) {
	g := genGraph(scale, seed)
	var b bytes.Buffer
	if err := rio.WriteNTriples(&b, g); err != nil {
		return nil, 0, err
	}
	return b.Bytes(), g.Len(), nil
}

// dataset is a generated graph with its serialized forms.
type dataset struct {
	g         *rdf.Graph
	nt        string
	shapesTTL string
}

// genDataset generates the seeded graph plus the SHACL shapes `s3pg
// extract` would produce for it (minimum support 0.02, the CLI default).
func genDataset(scale float64, seed int64) (*dataset, error) {
	g := genGraph(scale, seed)
	var b bytes.Buffer
	if err := rio.WriteNTriples(&b, g); err != nil {
		return nil, err
	}
	ttl, err := s3pg.ShapesToTurtle(s3pg.ExtractShapes(g, 0.02))
	if err != nil {
		return nil, err
	}
	return &dataset{g: g, nt: b.String(), shapesTTL: ttl}, nil
}
