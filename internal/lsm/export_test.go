package lsm

// CrashImage lets the external test package take crash images too.
var CrashImage = crashImage
