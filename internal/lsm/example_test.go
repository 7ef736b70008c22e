package lsm_test

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/internal/lsm"
)

// Example shows the full engine lifecycle: writes, a flush, a delete, and
// a major compaction scheduled by the paper's recommended BT(I) strategy.
func Example() {
	dir, err := os.MkdirTemp("", "lsm-example-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	for i := 0; i < 3; i++ {
		for j := 0; j < 100; j++ {
			key := fmt.Sprintf("user%03d", j)
			if err := db.PutContext(context.Background(), []byte(key), []byte(fmt.Sprintf("gen-%d", i))); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.DeleteContext(context.Background(), []byte("user007")); err != nil {
		log.Fatal(err)
	}

	res, err := db.MajorCompact("BT(I)", 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("tables merged:", res.TablesBefore)
	fmt.Println("tables after:", db.Stats().Tables)

	v, err := db.GetContext(context.Background(), []byte("user042"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("user042 =", string(v))
	_, err = db.GetContext(context.Background(), []byte("user007"))
	fmt.Println("user007 deleted:", err == lsm.ErrNotFound)
	// Output:
	// tables merged: 4
	// tables after: 1
	// user042 = gen-2
	// user007 deleted: true
}
