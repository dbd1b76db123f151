"""Maximal clique enumeration on uncertain graphs."""
